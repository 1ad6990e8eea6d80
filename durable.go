package annotadb

import (
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/relation"
	"annotadb/internal/shard"
	"annotadb/internal/storage"
	"annotadb/internal/wal"
)

// DurabilityOptions configure the persistent serving store: a write-ahead
// log of serving mutations plus periodic full-state checkpoints in one data
// directory. See OpenDurable.
type DurabilityOptions struct {
	// Dir is the data directory (created if absent). Required.
	Dir string
	// Shards partitions the durable store by annotation family into this
	// many independent shards, each with its own WAL and checkpoints under
	// Dir/shard-NN and a manifest tying their generations together. The
	// count is pinned by the manifest on first open; 0 or 1 keeps the
	// single-store layout.
	Shards int
	// Fsync says when log appends reach stable storage: "always" (default;
	// every record), "interval" (at most once per FsyncInterval), or
	// "never" (left to the OS page cache).
	Fsync string
	// FsyncInterval is the cadence under Fsync "interval" (0 = 100ms).
	FsyncInterval time.Duration
	// FlushWindow enables group commit under Fsync "always": appends skip
	// their inline fsync and one committer fsync covers every batch that
	// arrived while the previous fsync was in flight — acknowledgements
	// still wait for the covering fsync, so the durability contract is
	// unchanged. Zero keeps the per-batch fsync (the default); positive
	// lets the committer linger that long to absorb more batches per fsync;
	// negative group-commits with no linger. Sharded stores run one
	// committer per shard under the same policy.
	FlushWindow time.Duration
	// MaxGroupBytes caps the unsynced bytes a lingering commit group may
	// accumulate before its fsync is forced (0 = 1 MiB, negative uncaps).
	MaxGroupBytes int64
	// CheckpointBytes checkpoints when the log reaches this size
	// (0 = 4 MiB, negative disables the size policy). Sharded stores apply
	// the policy per shard.
	CheckpointBytes int64
	// CheckpointAge checkpoints when the oldest un-checkpointed record is
	// at least this old (0 disables the age policy).
	CheckpointAge time.Duration
	// Encoding selects the log record encoding: "binary" (default) or
	// "json". Recovery reads both regardless.
	Encoding string
}

func (d DurabilityOptions) internal() (wal.Options, error) {
	sync, err := wal.ParseSyncPolicy(d.Fsync)
	if err != nil {
		return wal.Options{}, err
	}
	enc, err := wal.ParseEncoding(d.Encoding)
	if err != nil {
		return wal.Options{}, err
	}
	return wal.Options{
		Dir:             d.Dir,
		Sync:            sync,
		SyncEvery:       d.FsyncInterval,
		FlushWindow:     d.FlushWindow,
		MaxGroupBytes:   d.MaxGroupBytes,
		Encoding:        enc,
		CheckpointBytes: d.CheckpointBytes,
		CheckpointAge:   d.CheckpointAge,
	}, nil
}

// HasDurableState reports whether dir holds state from a previous run — a
// single-store checkpoint or a sharded cluster manifest — i.e. whether
// OpenDurable would recover instead of bootstrapping. Callers that only
// mean to reopen existing state (no dataset to seed with) should check this
// first: bootstrapping a mistyped directory would quietly serve an empty
// dataset.
func HasDurableState(dir string) bool {
	return wal.HasCheckpoint(dir) || shard.HasDurableState(dir)
}

// RecoveryReport says how OpenDurable brought the store up.
type RecoveryReport struct {
	// FromCheckpoint is true when the engine was restored from a checkpoint
	// (for sharded stores: every shard restored) instead of bootstrapped
	// with a full mine.
	FromCheckpoint bool
	// RecordsReplayed is the number of log records replayed after the
	// checkpoint, summed across shards.
	RecordsReplayed int
	// TornTail reports that a torn final log record (crash artifact) was
	// dropped, in any shard.
	TornTail bool
	// Shards is the shard count of the recovered store (0 when unsharded).
	Shards int
	// PaddedTuples counts tuples re-appended into shard replicas that a
	// crash mid-append-fanout left behind (data values only; the padded
	// appends were never acknowledged). Always 0 for unsharded stores.
	PaddedTuples int
	// DurationSeconds is the wall time of recovery or bootstrap.
	DurationSeconds float64
}

// ShardDurabilityStats is one shard's write-ahead log and checkpoint
// activity inside DurabilityStats.
type ShardDurabilityStats struct {
	// Shard is the shard index.
	Shard int
	// RecordsAppended, LogBytes, Syncs, UnsyncedRecords, UnsyncedBytes,
	// Checkpoints, and CheckpointErrors mirror the top-level counters for
	// this shard alone.
	RecordsAppended  uint64
	LogBytes         int64
	Syncs            uint64
	UnsyncedRecords  int64
	UnsyncedBytes    int64
	Checkpoints      uint64
	CheckpointErrors uint64
}

// DurabilityStats reports write-ahead log and checkpoint activity for a
// durable server; see Server.Durability. For a sharded server the top-level
// counters are summed across shards and PerShard carries the breakdown.
type DurabilityStats struct {
	// RecordsAppended counts log records written since the store opened;
	// LogBytes is the current log size (checkpoints truncate it).
	RecordsAppended uint64
	LogBytes        int64
	// Syncs counts explicit log fsyncs. UnsyncedRecords and UnsyncedBytes
	// measure the current crash window: appended records whose covering
	// fsync has not completed yet (conservative — a record appended while a
	// sync is in flight stays counted until the next one). Under Fsync
	// "always" they are transiently non-zero only while a group commit is
	// in flight and never cover an acknowledged write; under "interval" and
	// "never" they bound what a crash right now could lose.
	Syncs           uint64
	UnsyncedRecords int64
	UnsyncedBytes   int64
	// Checkpoints and CheckpointErrors count checkpoint attempts since the
	// store opened; LastCheckpointUnixNano is the newest one's wall time
	// (0 = none this run).
	Checkpoints            uint64
	CheckpointErrors       uint64
	LastCheckpointUnixNano int64
	// Recovery echoes how the store came up.
	Recovery RecoveryReport
	// PerShard carries each shard's counters (nil when unsharded).
	PerShard []ShardDurabilityStats
	// Events reports the durable rule-churn event log (one per server —
	// sharded streams merge into a single cursor order, so the segments
	// live beside the cluster manifest, not inside the shard directories).
	// Nil when the stream is disabled.
	Events *EventLogStats
}

// EventLogStats reports the rotated-segment event log behind the rule-churn
// stream: how much retained history cursors can resume from, and the
// rotation/retention churn since the server started.
type EventLogStats struct {
	// Segments is the retained segment count (sealed + active);
	// FirstCursor and NextCursor bound the resumable history.
	Segments    int
	FirstCursor uint64
	NextCursor  uint64
	// RetainedBytes is the on-disk size of the retained segments.
	RetainedBytes int64
	// Appends counts events appended since open, Syncs explicit fsyncs of
	// the active segment (sealing a segment syncs it).
	Appends uint64
	Syncs   uint64
	// Rotations and RotatedBytes count segments sealed since open and their
	// size at sealing; RetentionTrims and TrimmedBytes count sealed
	// segments the retention policy deleted.
	Rotations      uint64
	RotatedBytes   int64
	RetentionTrims uint64
	TrimmedBytes   int64
}

// OpenDurable opens (or creates) the durable serving store in opts Dir and
// returns an engine backed by it.
//
// When the directory holds previous state, the engine is restored from its
// checkpoint(s) and the log tail(s) replayed — no mining pass, and dataPath
// is ignored. When the directory is empty, the dataset at dataPath (a
// Figure 4 file; "" for an empty dataset) is loaded, mined once (per shard,
// when dopts.Shards > 1), and checkpointed immediately so the next open
// skips the mine.
//
// The returned engine must be wrapped in NewServer before any mutation:
// only the serving writers journal batches to the logs. A sharded engine
// (dopts.Shards > 1) supports no direct Engine calls at all — every read
// and write goes through the Server.
func OpenDurable(dataPath string, opts Options, dopts DurabilityOptions) (*Engine, RecoveryReport, error) {
	return openDurable(opts, dopts, func() (*relation.Relation, error) {
		if dataPath == "" {
			return relation.New(), nil
		}
		return storage.ReadDatasetFile(dataPath, storage.Options{})
	})
}

// OpenDurableDataset is OpenDurable with an in-memory seed dataset instead
// of a dataset file path: when the directory is empty, ds seeds the store;
// when it holds previous state, ds is ignored and recovery proceeds as
// usual. The engine takes ownership of the dataset's relation — the caller
// must not touch ds afterwards. This is the boot path for corpora whose
// annotation vocabulary spans several family prefixes (cpu:high, pos:noun,
// …), which the default-classified file format of OpenDurable cannot
// express.
func OpenDurableDataset(ds *Dataset, opts Options, dopts DurabilityOptions) (*Engine, RecoveryReport, error) {
	return openDurable(opts, dopts, func() (*relation.Relation, error) {
		return ds.rel, nil
	})
}

func openDurable(opts Options, dopts DurabilityOptions, bootstrap func() (*relation.Relation, error)) (*Engine, RecoveryReport, error) {
	cfg, err := opts.internal()
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	wopts, err := dopts.internal()
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	cluster, err := shard.OpenDurable(shard.DurableOptions{
		Dir:    dopts.Dir,
		Shards: dopts.Shards,
		Wal:    wopts,
	}, cfg, incremental.Options{}, bootstrap)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	eng := &Engine{cluster: cluster}
	if engines := cluster.Engines(); len(engines) == 1 {
		// The single-store layout has one underlying engine, so the handle
		// supports direct Engine reads like an in-memory one.
		eng.eng = engines[0]
		eng.ds = &Dataset{rel: eng.eng.Relation()}
	}
	return eng, publicRecovery(cluster), nil
}

func publicRecovery(c *shard.Cluster) RecoveryReport {
	r := c.Recovery()
	return RecoveryReport{
		FromCheckpoint:  r.FromCheckpoint,
		RecordsReplayed: r.Records,
		TornTail:        r.TornTail,
		Shards:          publicShards(len(c.Stores())),
		PaddedTuples:    r.PaddedTuples,
		DurationSeconds: r.Duration.Seconds(),
	}
}

// Durability returns write-ahead log and checkpoint statistics, or nil for
// a purely in-memory server (one whose engine did not come from
// OpenDurable).
func (s *Server) Durability() *DurabilityStats {
	if s.cluster == nil {
		return nil
	}
	out := &DurabilityStats{
		Recovery: publicRecovery(s.cluster),
		Events:   s.eventLogStats(),
	}
	stats := s.cluster.Stats()
	for i, st := range stats {
		out.RecordsAppended += st.Records
		out.LogBytes += st.LogBytes
		out.Syncs += st.Syncs
		out.UnsyncedRecords += st.UnsyncedRecords
		out.UnsyncedBytes += st.UnsyncedBytes
		out.Checkpoints += st.Checkpoints
		out.CheckpointErrors += st.CheckpointErrors
		if st.LastCheckpointUnixNano > out.LastCheckpointUnixNano {
			out.LastCheckpointUnixNano = st.LastCheckpointUnixNano
		}
		if len(stats) == 1 {
			continue // the totals above are the one store's
		}
		out.PerShard = append(out.PerShard, ShardDurabilityStats{
			Shard:            i,
			RecordsAppended:  st.Records,
			LogBytes:         st.LogBytes,
			Syncs:            st.Syncs,
			UnsyncedRecords:  st.UnsyncedRecords,
			UnsyncedBytes:    st.UnsyncedBytes,
			Checkpoints:      st.Checkpoints,
			CheckpointErrors: st.CheckpointErrors,
		})
	}
	return out
}

// eventLogStats snapshots the durable event log's counters, nil when the
// server streams in memory only (or not at all).
func (s *Server) eventLogStats() *EventLogStats {
	if s.eventLog == nil {
		return nil
	}
	st := s.eventLog.Stats()
	return &EventLogStats{
		Segments:       st.Segments,
		FirstCursor:    st.FirstCursor,
		NextCursor:     st.NextCursor,
		RetainedBytes:  st.RetainedBytes,
		Appends:        st.Appends,
		Syncs:          st.Syncs,
		Rotations:      st.Rotations,
		RotatedBytes:   st.RotatedBytes,
		RetentionTrims: st.RetentionTrims,
		TrimmedBytes:   st.TrimmedBytes,
	}
}
