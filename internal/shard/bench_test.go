package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/workload"
)

// The headline benchmark of the sharded write path: the same 8K-tuple
// workload committed through 1, 2, 4, and 8 family shards. One op is one
// Case 3 annotation batch (benchBatch updates against one family), so at
// shard count 1 every batch serializes through a single writer and engine,
// while at higher counts batches for different families run their
// incremental maintenance concurrently. Run with
//
//	go test -bench ShardedWriters -benchtime 2s ./internal/shard
//
// and read throughput scaling off the ns/op column (lower = more batches
// per second); CI uploads the series into BENCH_serve.json.

const (
	benchFamilies = 8
	benchTuples   = 8000
	benchBatch    = 16
	benchSeed     = 1 // explicit seed: the workload is identical across shard counts and runs
)

// benchBase generates the deterministic 8K benchmark relation: eight
// annotation families ("Annot_f0".."Annot_f7", four members each), every
// family planted with one data-to-annotation and one intra-family
// annotation-to-annotation correlation so each shard maintains a living
// rule set under its share of the load.
func benchBase(tb testing.TB, tuples int) *relation.Relation {
	tb.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	rel := relation.New()
	dict := rel.Dictionary()
	batch := make([]relation.Tuple, 0, tuples)
	for i := 0; i < tuples; i++ {
		var data, annots []string
		f := rng.Intn(benchFamilies)
		data = append(data, fmt.Sprintf("d%d", f))
		if rng.Float64() < 0.5 {
			annots = append(annots, fmt.Sprintf("Annot_f%d:m0", f))
			if rng.Float64() < 0.8 {
				annots = append(annots, fmt.Sprintf("Annot_f%d:m1", f))
			}
			if rng.Float64() < 0.6 {
				annots = append(annots, fmt.Sprintf("Annot_f%d:m3", f))
			}
		}
		// m2 is the benchmark's toggled member: frequent enough (≈35% of
		// the family's tuples) that attaching and detaching it moves
		// tracked patterns, so every batch pays real maintenance, not just
		// cold-cache bookkeeping.
		if rng.Float64() < 0.35 {
			annots = append(annots, fmt.Sprintf("Annot_f%d:m2", f))
		}
		for v := 0; v < 4; v++ {
			data = append(data, fmt.Sprintf("d%d", 10+rng.Intn(30)))
		}
		batch = append(batch, relation.MustTuple(dict, dedup(data), dedup(annots)))
	}
	rel.Append(batch...)
	return rel
}

func benchRouter(b *testing.B, shards int) *Router {
	b.Helper()
	cfg := mining.Config{MinSupport: 0.03, MinConfidence: 0.5}
	r, err := NewRouter(benchBase(b, benchTuples), func(rel *relation.Relation) (*incremental.Engine, error) {
		return incremental.New(rel, cfg, incremental.Options{})
	}, Config{Shards: shards, Serve: serve.Config{BatchWindow: -1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := r.Close(ctx); err != nil {
			b.Error(err)
		}
	})
	return r
}

// BenchmarkShardedWriters measures write throughput of the partitioned
// write path on the 8K workload: concurrent clients each submit Case 3
// batches against their own annotation family (alternating attach and
// detach of the same updates, so the state stays bounded and every batch
// does real maintenance work). ns/op is the per-batch commit cost across
// all clients; it should fall as the shard count grows because families
// commit through independent writers and engines.
func BenchmarkShardedWriters(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			router := benchRouter(b, n)
			ctx := context.Background()
			var clientID atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(clientID.Add(1))
				fam := id % benchFamilies
				member := fmt.Sprintf("Annot_f%d:m2", fam)
				stride := (id*7919 + 13) % benchTuples
				i := 0
				for pb.Next() {
					batch := make([]Update, benchBatch)
					for j := range batch {
						batch[j] = Update{
							Tuple:      (stride + i*benchBatch + j) % benchTuples,
							Annotation: member,
						}
					}
					var err error
					if i%2 == 0 {
						_, err = router.AddAnnotations(ctx, batch)
					} else {
						_, err = router.RemoveAnnotations(ctx, batch)
					}
					if err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
			b.StopTimer()
			// The shards must still be exact after the pounding — a cheap
			// guard that the benchmark measures correct work.
			if b.N > 1 {
				for s, eng := range router.Engines() {
					if err := eng.Verify(); err != nil {
						b.Fatalf("shard %d diverged under benchmark load: %v", s, err)
					}
				}
			}
		})
	}
}

// BenchmarkProjectAll measures the per-shard data cost of a sharded start:
// partitioning the 8K-tuple metrics corpus (the mixed_sharded benchmark
// workload's seed) into every shard's relation at 1, 2, 4 and 8 shards.
// One op is one ProjectAll; B/op and allocs/op are what the shards' copies
// of the data cost on top of the source. Run with
//
//	go test -run '^$' -bench ProjectAll -benchmem ./internal/shard
func BenchmarkProjectAll(b *testing.B) {
	stream, err := workload.NewStream("metrics", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.BuildRelation(stream.Base(benchTuples))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProjectAll(src, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
