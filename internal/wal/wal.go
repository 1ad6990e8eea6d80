// Package wal makes the serving store durable: a write-ahead log of serving
// mutations plus periodic checkpoints of the relation, so that a restarted
// server re-mines the checkpointed relation and replays only the
// un-checkpointed update tail.
//
// # On-disk layout
//
// A Store owns one directory holding:
//
//	checkpoint.db — the serving state the engine cannot derive (relation,
//	                dictionary, lifetime counters) in the storage package's
//	                binary checkpoint format, installed by
//	                storage.InstallFile;
//	wal/          — the write-ahead log, a SegmentedLog of framed mutation
//	                records (annotation add/remove batches and tuple
//	                batches), each addressed by a cursor that never changes.
//
// The frame format, the torn-tail rule every reader applies, and the
// install rule are stated once in ARCHITECTURE.md "On-disk primitives";
// appendFrame and scanFrames are their only implementation.
//
// The single serving writer appends each coalesced batch to the log before
// it is applied to the engine (see the serve package's Journal hook), so an
// acknowledged write is always either in the durable log or covered by a
// newer checkpoint. Each checkpoint records its covered cursor, the first
// record it does not hold; once it is durably installed the segments wholly
// below that cursor are deleted. Recovery is always "load checkpoint,
// replay from its covered cursor".
//
// # Recovery
//
// Open recovers whatever state the directory holds. A missing directory or
// an empty one bootstraps from scratch (full mine) and writes the first
// checkpoint; an existing checkpoint restores the engine by mining the
// relation it holds and replays the log from the checkpoint's covered
// cursor through the ordinary incremental update paths. A torn final
// record — the expected artifact of a crash mid-append — is dropped and
// truncated away. Segments a crash left below the covered cursor are
// deleted first, and a log that ends below it restarts there.
//
// Records carry tokens, not item codes. Replay resolves them in log order
// under the relation package's write-path rule (Dictionary.ResolveUpdates
// and ResolveTuples), the one every live write also uses: an interned
// annotation, raw or derived, resolves to itself, so a derived
// generalization label in a record is never re-interned as raw; an unknown
// annotation token is interned as raw, so item codes come back as they
// were. A token in the wrong kind's role — a data value logged as an
// annotation — makes the record an *ErrRecordCorrupt. Replay's one
// leniency over a live write is a removal of a token the dictionary has
// never held: it is interned and skipped, where a client's is refused.
//
// Checkpoints also carry an epoch, a generation counter a sharded manifest
// keeps as a floor, and a fingerprint of the state-determining mining
// configuration; Open refuses a mismatch. Anything else that fails
// validation (bad magic, mid-log corruption, checkpoint trailing garbage, a
// log with no checkpoint, a wal.log of an older build that still holds
// records) is a hard error rather than silent data loss.
package wal

import (
	"fmt"
	"time"
)

// Default tuning values; see Options.
const (
	// DefaultCheckpointBytes is the log size that triggers a checkpoint.
	DefaultCheckpointBytes = 4 << 20
	// DefaultSyncEvery is the fsync cadence under SyncInterval.
	DefaultSyncEvery = 100 * time.Millisecond
)

// maxGroupBytes caps how many appended-but-unsynced bytes a lingering
// commit group may accumulate: reaching it cuts the linger short and issues
// the fsync at once.
const maxGroupBytes = 1 << 20

// SyncPolicy says when the log file is fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every appended record: an acknowledged write
	// survives an OS crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, trading the
	// tail of a crash window for append throughput.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: a process crash loses
	// nothing, an OS crash may lose the un-flushed tail.
	SyncNever
)

// String names the policy using the flag spellings of cmd/annotserve.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses the flag spellings accepted by cmd/annotserve.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never", "none":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options tune a Store.
type Options struct {
	// Dir is the data directory. Created if absent. Required.
	Dir string
	// Tag, when non-empty, is folded into the checkpoint's configuration
	// fingerprint. A store whose identity goes beyond the mining
	// configuration — a shard, say, which is only valid as shard i of n
	// under one family scheme — sets a Tag so that a directory restored
	// into the wrong slot is refused at Open instead of silently serving
	// another shard's state.
	Tag string
	// Sync says when appended records are fsynced.
	Sync SyncPolicy
	// SyncEvery is the fsync cadence under SyncInterval (0 means
	// DefaultSyncEvery).
	SyncEvery time.Duration
	// FlushWindow enables group commit under SyncAlways: appends skip
	// their inline fsync and a background goroutine issues one fsync per
	// commit group, covering every record appended (and sealed via Seal)
	// while the previous fsync was in flight — the durability contract is
	// unchanged (an acknowledged write survives an OS crash) because the
	// serving writer withholds acknowledgements until the covering fsync
	// completes. Zero disables group commit (the default: every append
	// fsyncs inline before it returns); a positive window additionally
	// lets the goroutine linger that long after a seal to absorb more
	// groups into the same fsync, unless 1 MiB of log is already unsynced;
	// negative enables group commit with no linger (the fsync is issued as
	// soon as the goroutine is free). Under SyncInterval and SyncNever it
	// never touches the ack path.
	FlushWindow time.Duration
	// CheckpointBytes triggers a checkpoint when the log reaches this size.
	// Zero means DefaultCheckpointBytes; negative disables the size policy.
	CheckpointBytes int64
	// CheckpointAge triggers a checkpoint when the oldest un-checkpointed
	// record is at least this old. Zero disables the age policy.
	CheckpointAge time.Duration
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

func (o Options) syncEvery() time.Duration {
	if o.SyncEvery <= 0 {
		return DefaultSyncEvery
	}
	return o.SyncEvery
}

// groupCommit reports whether acknowledgements are gated on a background
// fsync instead of an inline one.
func (o Options) groupCommit() bool {
	return o.FlushWindow != 0 && o.Sync == SyncAlways
}

func (o Options) flushWindow() time.Duration {
	if o.FlushWindow < 0 {
		return 0
	}
	return o.FlushWindow
}
