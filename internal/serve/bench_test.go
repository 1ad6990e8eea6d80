package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/wal"
)

// Benchmarks demonstrating the serving core's read-path property: readers
// work on an atomically loaded immutable snapshot, so throughput scales
// with GOMAXPROCS instead of flatlining on the engine's write lock. Run
// with e.g.
//
//	go test -bench . -cpu 1,2,4,8 ./internal/serve
//
// and compare BenchmarkSnapshotRead / BenchmarkRecommend (lock-free reads)
// against BenchmarkEngineRulesBaseline (every read clones under the engine
// mutex): the former's ns/op holds or improves as -cpu grows, the latter's
// degrades with contention.

func benchWorld(b *testing.B) (*Server, *incremental.Engine, *relation.Relation) {
	b.Helper()
	rel, _ := buildWorld(11, 400)
	eng, err := incremental.New(rel, mining.Config{MinSupport: 0.15, MinConfidence: 0.5}, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := New(eng, Config{})
	b.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			b.Error(err)
		}
	})
	return s, eng, rel
}

// BenchmarkSnapshotRead measures the raw read path: one atomic load plus a
// walk over the immutable rule view.
func BenchmarkSnapshotRead(b *testing.B) {
	s, _, _ := benchWorld(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			snap := s.Snapshot()
			if snap.Rules.Len() == 0 {
				b.Fatal("empty rule view")
			}
		}
	})
}

// BenchmarkRecommend measures a full read request: snapshot load, tuple
// fetch from the published immutable view (no locks at all), rule
// evaluation.
func BenchmarkRecommend(b *testing.B) {
	s, _, rel := benchWorld(b)
	n := rel.Len()
	b.ReportAllocs()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx := int(ctr.Add(1)) % n
			if _, _, err := s.Recommend(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecommendWhileWriting is the acceptance shape: concurrent
// readers recommending while a writer continuously applies annotation
// batches. Reader latency stays flat because a batch commit only swaps a
// pointer.
func BenchmarkRecommendWhileWriting(b *testing.B) {
	s, _, rel := benchWorld(b)
	dict := rel.Dictionary()
	a := relation.MustAnnotation(dict, "Annot_A")
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := i % rel.Len()
			if i%2 == 0 {
				_, _ = s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
			} else {
				_, _ = s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
			}
		}
	}()
	n := rel.Len()
	b.ReportAllocs()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx := int(ctr.Add(1)) % n
			if _, _, err := s.Recommend(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkEngineRulesBaseline is the pre-serving-layer read path for
// contrast: every call takes the engine mutex and deep-clones the rule set,
// so parallel readers serialize on the lock and allocate per call.
func BenchmarkEngineRulesBaseline(b *testing.B) {
	_, eng, _ := benchWorld(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if eng.Rules().Len() == 0 {
				b.Fatal("empty rule set")
			}
		}
	})
}

// benchDurableServer builds the group-commit acceptance world: an 8K-tuple
// relation behind a real WAL store with Fsync-per-record durability, served
// with small batches so the fsync policy — not coalescing — is what the
// benchmark measures.
func benchDurableServer(b *testing.B, flushWindow time.Duration) (*Server, *relation.Relation) {
	b.Helper()
	rel, _ := buildWorld(17, 8000)
	store, err := wal.Open(wal.Options{
		Dir:         b.TempDir(),
		Sync:        wal.SyncAlways,
		FlushWindow: flushWindow,
	}, mining.Config{MinSupport: 0.15, MinConfidence: 0.5}, incremental.Options{}, func() (*relation.Relation, error) {
		return rel, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New(store.Engine(), Config{BatchWindow: -1, MaxBatch: 8, QueueDepth: 4096, Journal: store})
	b.Cleanup(func() {
		// Server first: outstanding seal tickets need the store's committer.
		if err := s.Close(context.Background()); err != nil {
			b.Error(err)
		}
		if err := store.Close(); err != nil {
			b.Error(err)
		}
	})
	return s, rel
}

// BenchmarkGroupCommit is the tentpole acceptance benchmark: sustained
// fsync'd writes/sec on the 8K workload, per-batch fsync (FlushWindow 0,
// the legacy inline policy) against group commit (FlushWindow < 0: no
// linger, one fsync covers every batch sealed while the previous fsync was
// in flight). Both run SyncAlways with identical batching, so the ratio
// isolates the commit policy; the group-commit variant must sustain ≥5×.
func BenchmarkGroupCommit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		window time.Duration
	}{
		{"fsync-per-batch", 0},
		{"group-commit", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, rel := benchDurableServer(b, bc.window)
			a := relation.MustAnnotation(rel.Dictionary(), "Annot_A")
			n := rel.Len()
			ctx := context.Background()
			var ctr atomic.Uint64
			b.SetParallelism(16) // enough in-flight writers to queue batches behind a sync
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					idx := int(i) % n
					var err error
					if i%2 == 0 {
						_, err = s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
					} else {
						_, err = s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/sec")
		})
	}
}

// BenchmarkWriteThroughput measures coalesced write commits: many
// goroutines submitting single-update batches that the writer loop merges.
// batches/request is engine applications and publishes/request snapshot
// publishes per accepted request: below 1, requests that queued while the
// writer was busy shared an application or a publish. Attaches and detaches
// alternate, and only like-kind neighbours share an application.
func BenchmarkWriteThroughput(b *testing.B) {
	s, _, rel := benchWorld(b)
	dict := rel.Dictionary()
	a := relation.MustAnnotation(dict, "Annot_B")
	n := rel.Len()
	ctx := context.Background()
	b.SetParallelism(4)
	b.ReportAllocs()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			idx := int(i) % n
			var err error
			if i%2 == 0 {
				_, err = s.AddAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
			} else {
				_, err = s.RemoveAnnotations(ctx, []relation.AnnotationUpdate{{Index: idx, Annotation: a}})
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/sec")
	b.ReportMetric(float64(st.Batches)/float64(st.Requests), "batches/request")
	b.ReportMetric(float64(st.Latency.Publish.Count)/float64(st.Requests), "publishes/request")
}
