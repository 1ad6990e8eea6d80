package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/serve"
	"annotadb/internal/storage"
	"annotadb/internal/wal"
)

// manifestName is the cluster manifest file inside the data directory.
const manifestName = "MANIFEST.json"

// manifestVersion is the current manifest format version.
const manifestVersion = 1

// ShardDir returns shard s's data directory (its own WAL and checkpoints)
// inside the cluster directory.
func ShardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d", s))
}

// ManifestPath returns the cluster manifest location inside a data dir.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// manifest ties the per-shard generations together: the shard count and
// family scheme pin the placement function (annotation → shard) the data
// was partitioned under, and the epoch vector records the last generation
// each shard was known to hold at a clean open or close. A shard directory
// restored from an older backup (its store's epoch behind the recorded
// floor) is refused at open instead of silently serving a rolled-back
// generation; epochs recorded here may lag reality (checkpoints installed
// between manifest writes), which is safe — the floor check only ever
// rejects regressions.
type manifest struct {
	Version   int      `json:"version"`
	Shards    int      `json:"shards"`
	Separator string   `json:"family_separator"`
	Epochs    []uint64 `json:"epochs"`
}

func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: parse manifest %s: %w", ManifestPath(dir), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest %s has version %d, this build reads %d", ManifestPath(dir), m.Version, manifestVersion)
	}
	return &m, nil
}

// writeManifest installs the manifest with storage.InstallFile, so a crash
// mid-write leaves the previous manifest.
func writeManifest(dir string, m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	return storage.InstallFile(ManifestPath(dir), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// HasDurableState reports whether dir holds a sharded cluster from a
// previous run — i.e. whether OpenDurable would recover instead of
// bootstrapping.
func HasDurableState(dir string) bool {
	_, err := os.Stat(ManifestPath(dir))
	return err == nil
}

// Recovery summarizes how OpenDurable brought the cluster up: its stores'
// reports folded into one. FromCheckpoint holds when every shard restored
// from its checkpoint rather than from the dataset, Records totals the log records
// replayed across shards, TornTail reports that at least one shard dropped
// a torn final record, and Duration is the wall time of the whole open.
type Recovery struct {
	wal.Recovery
	// Shards is the shard count of a sharded cluster, 0 for the
	// single-store layout.
	Shards int `json:"-"`
	// PaddedTuples counts tuples re-appended (data values only) into
	// replicas that a crash mid-fanout left behind the longest shard; the
	// padded appends were never acknowledged, so their lost per-shard
	// annotations are unacked writes, not data loss. Always 0 for the
	// single-store layout.
	PaddedTuples int `json:"-"`
}

// DurableOptions configure a durable cluster.
type DurableOptions struct {
	// Dir is the data directory. With Shards > 1 each shard keeps its own
	// WAL and checkpoints in Dir/shard-NN, tied together by
	// Dir/MANIFEST.json; a single shard keeps its WAL and checkpoints in
	// Dir itself, with no manifest.
	Dir string
	// Shards is the shard count; 0 or 1 means the single-store layout. A
	// count above 1 is pinned by the manifest: reopening with a different
	// count is refused (re-sharding would require re-partitioning every
	// replica).
	Shards int
	// Wal is the per-shard store configuration template; Dir and Tag are
	// derived per shard.
	Wal wal.Options
}

// Cluster is the durable store behind a Router: one wal.Store per shard
// plus, when there are several, the manifest tying their generations
// together. Wire Stores into a Router via Config.Journals and route every
// mutation through the router.
type Cluster struct {
	dir      string
	stores   []*wal.Store
	recovery Recovery
	closed   bool
}

// shardTag is the per-shard fingerprint tag: a shard checkpoint is only
// valid in its own slot of its own layout.
func shardTag(s, n int) string {
	return fmt.Sprintf("shard=%d/%d sep=%s", s, n, relation.FamilySeparator)
}

// OpenDurable opens (or creates) the durable cluster in opts.Dir.
//
// With opts.Shards <= 1 the cluster is the single root-level store: its
// checkpoint and log sit in opts.Dir itself, seeded by bootstrap on first
// open and recovered from afterwards, with no manifest and no fingerprint
// tag. A directory that holds a sharded cluster is refused.
//
// With more shards, on first open, bootstrap supplies the seed relation;
// each shard mines its family projection of it (in parallel) and writes its
// first checkpoint, and the manifest is installed. On reopen, the manifest pins the shard
// count and each shard recovers independently — checkpoint restore plus log
// tail replay — after which replica lengths are reconciled: a shard that a
// crash mid-append-fanout left short is padded with the missing tuples'
// data values (re-logged, so the repair is itself durable), restoring the
// invariant that every replica holds every tuple at the same position.
func OpenDurable(opts DurableOptions, cfg mining.Config, eopts incremental.Options, bootstrap func() (*relation.Relation, error)) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, errors.New("shard: DurableOptions.Dir is required")
	}
	n := opts.Shards
	if n <= 1 {
		if HasDurableState(opts.Dir) {
			return nil, fmt.Errorf("shard: %s holds a sharded cluster; reopen it with the shard count its manifest records", opts.Dir)
		}
		wopts := opts.Wal
		wopts.Dir = opts.Dir
		store, err := wal.Open(wopts, cfg, eopts, bootstrap)
		if err != nil {
			return nil, err
		}
		return &Cluster{dir: opts.Dir, stores: []*wal.Store{store}, recovery: Recovery{Recovery: store.Recovery()}}, nil
	}
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create cluster dir: %w", err)
	}
	man, err := readManifest(opts.Dir)
	switch {
	case err == nil:
		if man.Shards != n {
			return nil, fmt.Errorf("shard: %s was partitioned into %d shards, cannot open with %d (re-sharding requires a fresh directory)", opts.Dir, man.Shards, n)
		}
		if man.Separator != relation.FamilySeparator {
			return nil, fmt.Errorf("shard: %s was partitioned under family separator %q, this build uses %q", opts.Dir, man.Separator, relation.FamilySeparator)
		}
		for s := 0; s < n; s++ {
			if !wal.HasCheckpoint(ShardDir(opts.Dir, s)) {
				return nil, fmt.Errorf("shard: %s lists %d shards but shard %d has no checkpoint; refusing to bootstrap over a partial cluster", opts.Dir, n, s)
			}
		}
	case os.IsNotExist(err):
		// No manifest: the directory must be virgin, or a first bootstrap
		// that crashed before its manifest install (sentinel present — no
		// server ever ran against that data, so it is safe to wipe and
		// redo). A shard checkpoint without either means the manifest was
		// lost or the directory was hand-assembled, and a top-level
		// checkpoint means the directory belongs to an unsharded store;
		// bootstrapping over those would silently orphan acknowledged
		// state.
		if wal.HasCheckpoint(opts.Dir) {
			return nil, fmt.Errorf("shard: %s holds an unsharded store's checkpoint; reopen it without sharding, or move it aside to re-partition", opts.Dir)
		}
		if hasBootstrapSentinel(opts.Dir) {
			for s := 0; s < n; s++ {
				if err := os.RemoveAll(ShardDir(opts.Dir, s)); err != nil {
					return nil, fmt.Errorf("shard: clear interrupted bootstrap: %w", err)
				}
			}
		} else {
			for s := 0; s < n; s++ {
				if wal.HasCheckpoint(ShardDir(opts.Dir, s)) {
					return nil, fmt.Errorf("shard: %s holds shard data but no manifest; refusing to bootstrap over it", opts.Dir)
				}
			}
		}
		// The sentinel marks a bootstrap in progress: it is written before
		// any shard state and removed only after the manifest is durably
		// installed, so a crash anywhere between leaves a recoverable
		// marker instead of an un-openable directory.
		if err := writeBootstrapSentinel(opts.Dir); err != nil {
			return nil, err
		}
		man = nil
	default:
		return nil, err
	}

	// The seed relation is loaded at most once and projected per shard.
	var (
		seedOnce sync.Once
		seedRel  *relation.Relation
		seedErr  error
	)
	seed := func() (*relation.Relation, error) {
		seedOnce.Do(func() {
			if bootstrap == nil {
				seedErr = fmt.Errorf("shard: %s holds no cluster and no bootstrap was provided", opts.Dir)
				return
			}
			seedRel, seedErr = bootstrap()
		})
		return seedRel, seedErr
	}

	c := &Cluster{dir: opts.Dir, stores: make([]*wal.Store, n), recovery: Recovery{Shards: n}}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			wopts := opts.Wal
			wopts.Dir = ShardDir(opts.Dir, s)
			wopts.Tag = shardTag(s, n)
			c.stores[s], errs[s] = wal.Open(wopts, cfg, eopts, func() (*relation.Relation, error) {
				rel, err := seed()
				if err != nil {
					return nil, err
				}
				return Project(rel, s, n)
			})
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		c.closeStores()
		return nil, err
	}

	// Aggregate per-shard recovery and enforce the manifest's epoch floors.
	c.recovery.FromCheckpoint = true
	for s, st := range c.stores {
		rec := st.Recovery()
		if !rec.FromCheckpoint {
			c.recovery.FromCheckpoint = false
		}
		c.recovery.Records += rec.Records
		if rec.TornTail {
			c.recovery.TornTail = true
		}
		if man != nil && s < len(man.Epochs) && st.Epoch() < man.Epochs[s] {
			err := fmt.Errorf("shard: shard %d is at epoch %d but the manifest recorded %d: the shard directory was rolled back (restored from an older backup?)",
				s, st.Epoch(), man.Epochs[s])
			c.closeStores()
			return nil, err
		}
	}

	if err := c.reconcile(); err != nil {
		c.closeStores()
		return nil, err
	}
	if err := c.writeManifest(); err != nil {
		c.closeStores()
		return nil, err
	}
	// The manifest is durably installed: a bootstrap (if this was one) is
	// complete, so the in-progress sentinel can go. A completed cluster
	// whose sentinel removal crashed is cleaned up here on the next open.
	if err := clearBootstrapSentinel(opts.Dir); err != nil {
		c.closeStores()
		return nil, err
	}
	c.recovery.Duration = time.Since(start)
	return c, nil
}

// bootstrapSentinelPath marks a first bootstrap in progress; see OpenDurable.
func bootstrapSentinelPath(dir string) string { return filepath.Join(dir, ".bootstrap") }

func hasBootstrapSentinel(dir string) bool {
	_, err := os.Stat(bootstrapSentinelPath(dir))
	return err == nil
}

func writeBootstrapSentinel(dir string) error {
	f, err := os.OpenFile(bootstrapSentinelPath(dir), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("shard: write bootstrap sentinel: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shard: sync bootstrap sentinel: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: close bootstrap sentinel: %w", err)
	}
	return storage.SyncDir(dir)
}

func clearBootstrapSentinel(dir string) error {
	if err := os.Remove(bootstrapSentinelPath(dir)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: clear bootstrap sentinel: %w", err)
	}
	return storage.SyncDir(dir)
}

// reconcile restores the equal-length replica invariant after recovery: a
// crash between per-shard append fan-outs can leave some replicas missing
// the newest (unacknowledged) tuples. The missing tuples' data values are
// identical on every replica, so the longest shard donates them; each
// repair is logged to the short shard's WAL before it is applied, exactly
// like a live write, so the repair survives a crash during recovery.
func (c *Cluster) reconcile() error {
	donor, maxLen := 0, c.stores[0].Engine().Relation().Len()
	for s, st := range c.stores[1:] {
		if l := st.Engine().Relation().Len(); l > maxLen {
			donor, maxLen = s+1, l
		}
	}
	donorRel := c.stores[donor].Engine().Relation()
	for s, st := range c.stores {
		eng := st.Engine()
		rel := eng.Relation()
		short := rel.Len()
		if short == maxLen {
			continue
		}
		// The donor's annotations belong to the donor's families: a pad
		// carries only the data values, translated into this shard alone.
		dicts := make([]*relation.Dictionary, len(c.stores))
		dicts[s] = rel.Dictionary()
		tr := newTranslator(donorRel.Dictionary(), dicts)
		pad := make([]relation.Tuple, 0, maxLen-short)
		donorRel.EachFrom(short, func(_ int, tu relation.Tuple) bool {
			pad = append(pad, relation.Tuple{Data: tr.dataSet(tu.Data)})
			return tr.err == nil
		})
		if tr.err != nil {
			return fmt.Errorf("shard: reconcile: donor shard %d: %w", donor, tr.err)
		}
		if err := st.LogTuples(pad); err != nil {
			return fmt.Errorf("shard: reconcile: log padded tuples: %w", err)
		}
		if _, err := eng.AddUnannotatedTuples(pad); err != nil {
			return fmt.Errorf("shard: reconcile: apply padded tuples: %w", err)
		}
		c.recovery.PaddedTuples += len(pad)
	}
	return nil
}

func (c *Cluster) writeManifest() error {
	m := &manifest{
		Version:   manifestVersion,
		Shards:    len(c.stores),
		Separator: relation.FamilySeparator,
		Epochs:    make([]uint64, len(c.stores)),
	}
	for s, st := range c.stores {
		m.Epochs[s] = st.Epoch()
	}
	return writeManifest(c.dir, m)
}

// Stores returns the per-shard durable stores, indexed by shard; each
// implements serve.Journal for its shard's writer (Router Config.Journals).
func (c *Cluster) Stores() []*wal.Store { return c.stores }

// Dir returns the cluster's data directory.
func (c *Cluster) Dir() string { return c.dir }

// Failed reports the first shard store's latched unrecoverable failure, or
// nil while every shard is healthy. Safe from any goroutine; health
// endpoints surface it.
func (c *Cluster) Failed() error {
	for s, st := range c.stores {
		if err := st.Failed(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Journals adapts Stores to the Router's journal slice (Config.Journals).
func (c *Cluster) Journals() []serve.Journal {
	out := make([]serve.Journal, len(c.stores))
	for s, st := range c.stores {
		out[s] = st
	}
	return out
}

// Engines returns the per-shard recovered (or bootstrapped) engines; wire
// them into a Router with FromEngines.
func (c *Cluster) Engines() []*incremental.Engine {
	out := make([]*incremental.Engine, len(c.stores))
	for s, st := range c.stores {
		out[s] = st.Engine()
	}
	return out
}

// Recovery reports what OpenDurable found and did.
func (c *Cluster) Recovery() Recovery { return c.recovery }

// ShardDurability is one shard's write-ahead log and checkpoint counters:
// an entry of the /stats durability per_shard array.
type ShardDurability struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	wal.Stats
}

// DurabilityStats is the /stats durability section: the stores' counters
// summed across shards (LastCheckpointUnixNano is the newest shard's), how
// the cluster came up, and — when sharded — each shard's own counters.
type DurabilityStats struct {
	wal.Stats
	// Recovery echoes how the cluster came up; its wire fields sit flat
	// beside the counters.
	Recovery Recovery `json:"-"`
	// PerShard carries each shard's counters (nil for the single-store
	// layout).
	PerShard []ShardDurability `json:"per_shard,omitempty"`
	// Events reports the durable rule-churn event log kept beside the
	// cluster (one per server: sharded streams merge into a single cursor
	// order). The cluster does not own that log, so Stats leaves it nil
	// for its owner to fill; nil when the stream is disabled.
	Events *wal.SegmentedStats `json:"events,omitempty"`
}

// MarshalJSON renders the section: the counters, the recovery report flat
// beside them (padded_tuples only when sharded), and the newest
// checkpoint's wall time in Unix seconds. Only a pointer to the section is
// ever embedded in a larger body, so this method is never promoted.
func (d DurabilityStats) MarshalJSON() ([]byte, error) {
	type counters DurabilityStats // without this method
	var padded *int
	if d.PerShard != nil {
		padded = &d.Recovery.PaddedTuples
	}
	return json.Marshal(struct {
		counters
		wal.Recovery
		RecoverySeconds    float64 `json:"recovery_seconds"`
		PaddedTuples       *int    `json:"padded_tuples,omitempty"`
		LastCheckpointUnix float64 `json:"last_checkpoint_unix"`
	}{counters(d), d.Recovery.Recovery, d.Recovery.Duration.Seconds(), padded,
		float64(d.LastCheckpointUnixNano) / float64(time.Second)})
}

// Stats returns the durability section: every store's counters, summed,
// and per shard when there are several.
func (c *Cluster) Stats() DurabilityStats {
	out := DurabilityStats{Recovery: c.recovery}
	for s, store := range c.stores {
		st := store.Stats()
		out.RecordsAppended += st.RecordsAppended
		out.LogBytes += st.LogBytes
		out.Syncs += st.Syncs
		out.UnsyncedRecords += st.UnsyncedRecords
		out.UnsyncedBytes += st.UnsyncedBytes
		out.Checkpoints += st.Checkpoints
		out.CheckpointErrors += st.CheckpointErrors
		out.LastCheckpointUnixNano = max(out.LastCheckpointUnixNano, st.LastCheckpointUnixNano)
		if len(c.stores) > 1 {
			out.PerShard = append(out.PerShard, ShardDurability{Shard: s, Stats: st})
		}
	}
	return out
}

// Checkpoint writes a final checkpoint on every shard whose log holds
// records not yet covered by one. Call only after the Router has been
// closed (the stores' mutating methods belong to the per-shard writers
// until then).
func (c *Cluster) Checkpoint() error {
	errs := make([]error, len(c.stores))
	var wg sync.WaitGroup
	for s, st := range c.stores {
		if !st.HasPendingRecords() {
			continue
		}
		wg.Add(1)
		go func(s int, st *wal.Store) {
			defer wg.Done()
			errs[s] = st.Checkpoint()
		}(s, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close closes every shard's store and, for a sharded layout, records the
// final epoch vector in the manifest. Idempotent; call after the Router has
// been closed.
func (c *Cluster) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.closeStores()
	if len(c.stores) > 1 {
		if merr := c.writeManifest(); merr != nil && err == nil {
			err = merr
		}
	}
	return err
}

func (c *Cluster) closeStores() error {
	var errs []error
	for _, st := range c.stores {
		if st == nil {
			continue
		}
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
