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
	// FlushWindow is the durable server's one flush window. Under Fsync
	// "always" it enables group commit: appends skip their inline fsync and
	// one background fsync covers every batch that arrived while the
	// previous fsync was in flight — acknowledgements still wait for the
	// covering fsync, so the durability contract is unchanged. Under every
	// Fsync policy it also bounds how long a churn event may sit unsynced
	// in the durable event log. Zero keeps the per-batch fsync and leaves
	// the event log's active tail to rotation and shutdown (the default);
	// positive lingers that long to absorb more batches (or events) per
	// fsync, unless 1 MiB of log is already unsynced; negative syncs with
	// no linger. Sharded stores run one group commit per shard under the
	// same window.
	FlushWindow time.Duration
	// CheckpointBytes checkpoints when the log reaches this size
	// (0 = 4 MiB, negative disables the size policy). Sharded stores apply
	// the policy per shard.
	CheckpointBytes int64
	// CheckpointAge checkpoints when the oldest un-checkpointed record is
	// at least this old (0 disables the age policy).
	CheckpointAge time.Duration
}

func (d DurabilityOptions) internal() (wal.Options, error) {
	sync, err := wal.ParseSyncPolicy(d.Fsync)
	if err != nil {
		return wal.Options{}, err
	}
	return wal.Options{
		Dir:             d.Dir,
		Sync:            sync,
		SyncEvery:       d.FsyncInterval,
		FlushWindow:     d.FlushWindow,
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

// RecoveryReport says how OpenDurable brought the store up: FromCheckpoint
// is true when the engine was restored from a checkpoint (for sharded
// stores: every shard restored) instead of bootstrapped with a full mine;
// Records is the number of log records replayed after the checkpoint,
// summed across shards; TornTail reports that a torn final log record
// (crash artifact) was dropped, in any shard; Duration is the wall time of
// recovery or bootstrap; Shards is the shard count of the recovered store
// (0 when unsharded); PaddedTuples counts tuples re-appended into shard
// replicas that a crash mid-append-fanout left behind (data values only;
// the padded appends were never acknowledged), always 0 when unsharded. On
// /stats its fields sit flat in the durability section.
type RecoveryReport = shard.Recovery

// ShardDurabilityStats is one shard's write-ahead log and checkpoint
// activity inside DurabilityStats: the top-level counters for this shard
// alone.
type ShardDurabilityStats = shard.ShardDurability

// DurabilityStats reports write-ahead log and checkpoint activity for a
// durable server; see Server.Durability. RecordsAppended counts log records
// written since the store opened and LogBytes is the size of the retained
// log segments (checkpoints trim them). Syncs counts explicit log fsyncs.
// UnsyncedRecords and UnsyncedBytes measure the current crash window:
// appended records whose covering fsync has not completed yet. Under Fsync
// "always" they are transiently non-zero only while a group commit is in
// flight and never cover an acknowledged write; under "interval" and
// "never" they bound what a crash right now could lose. Checkpoints and
// CheckpointErrors count checkpoint attempts since the store opened, and
// LastCheckpointUnixNano is the newest one's wall time (0 = none this run).
// Recovery echoes how the store came up. For a sharded server the counters
// are summed across shards and PerShard carries the breakdown. Events
// reports the durable rule-churn event log; nil when the stream is
// disabled.
type DurabilityStats = shard.DurabilityStats

// EventLogStats reports the rotated-segment event log behind the rule-churn
// stream: how much retained history cursors can resume from, and the
// rotation/retention churn since the server started.
type EventLogStats = wal.SegmentedStats

// OpenDurable opens (or creates) the durable serving store in opts Dir and
// returns an engine backed by it.
//
// When the directory holds previous state, each engine is rebuilt by
// mining the relation its checkpoint holds, and the log tail(s) replayed;
// dataPath is ignored. When the directory is empty, the dataset at dataPath
// (a Figure 4 file; "" for an empty dataset) is loaded, mined (per shard,
// when dopts.Shards > 1), and checkpointed immediately so the next open
// reads the relation back instead of the dataset.
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
	eng := &Engine{cluster: cluster, flushWindow: dopts.FlushWindow}
	if engines := cluster.Engines(); len(engines) == 1 {
		// The single-store layout has one underlying engine, so the handle
		// supports direct Engine reads like an in-memory one.
		eng.eng = engines[0]
		eng.ds = &Dataset{rel: eng.eng.Relation()}
	}
	return eng, cluster.Recovery(), nil
}

// Durability returns write-ahead log and checkpoint statistics, or nil for
// a purely in-memory server (one whose engine did not come from
// OpenDurable).
func (s *Server) Durability() *DurabilityStats {
	if s.cluster == nil {
		return nil
	}
	out := s.cluster.Stats()
	if s.eventLog != nil {
		ev := s.eventLog.Stats()
		out.Events = &ev
	}
	return &out
}
