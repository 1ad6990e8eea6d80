package wal

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"annotadb/internal/incremental"
	"annotadb/internal/itemset"
	"annotadb/internal/mining"
	"annotadb/internal/relation"
	"annotadb/internal/storage"
)

// CheckpointPath returns the checkpoint file location inside a data dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, "checkpoint.db") }

// SegmentDir returns the directory of the write-ahead log's segments inside
// a data dir.
func SegmentDir(dir string) string { return filepath.Join(dir, "wal") }

// legacyLogMagic opened wal.log, the one byte-addressed log file of builds
// before the segmented WAL: a 16-byte header (the magic, an epoch), then
// record frames.
const (
	legacyLogMagic      = "ADBWAL\x00\x02"
	legacyLogHeaderSize = 16
)

// HasCheckpoint reports whether dir holds a checkpoint file — i.e. whether
// Open would recover instead of bootstrapping. It does not validate the
// file; Open does.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(CheckpointPath(dir))
	return err == nil
}

// configFingerprint canonicalizes the configuration facets that determine
// mined state. Restoring a checkpoint under a different fingerprint would
// silently break the exactness contract (thresholds are recomputed from the
// running config against state tracked under the old one), so Open refuses
// the mismatch. Algorithm choice, parallelism, and counting strategy are
// excluded: they change how the state is computed, never what it is.
//
// A slack of 1 or more prints as 1, the value that keeps no near-miss pool;
// 0 prints as 0, unresolved to the default it stands for.
func configFingerprint(cfg mining.Config, tag string) string {
	slack := min(cfg.CandidateSlack, 1)
	fp := fmt.Sprintf("v1 support=%g confidence=%g slack=%g maxlen=%d excludeDerived=%t dataRules=%t annotRules=%t",
		cfg.MinSupport, cfg.MinConfidence, slack, cfg.MaxLen,
		cfg.ExcludeDerived, cfg.MineDataRules, cfg.MineAnnotRules)
	if tag != "" {
		fp += " tag=" + tag
	}
	return fp
}

// Recovery summarizes what Open found and did. On /stats its wire fields
// sit flat in the durability section.
type Recovery struct {
	// FromCheckpoint reports that the engine was restored from a checkpoint;
	// false means the store was bootstrapped fresh.
	FromCheckpoint bool `json:"recovered"`
	// Records is the number of log records replayed after the checkpoint.
	Records int `json:"records_replayed"`
	// TornTail reports that a torn final record was dropped and truncated.
	TornTail bool `json:"torn_tail"`
	// Duration is the wall time of the whole Open, mine or recovery
	// included; /stats reports it as recovery_seconds.
	Duration time.Duration `json:"-"`
}

// Stats reports durability activity since Open. Encoded by its JSON tags it
// is one shard's entry in the /stats durability per_shard array; summed
// across shards it is the durability section's counters.
type Stats struct {
	// RecordsAppended and LogBytes describe the appended log: records
	// written since Open and the bytes of every retained segment
	// (checkpoints trim them).
	RecordsAppended uint64 `json:"records_appended"`
	LogBytes        int64  `json:"log_bytes"`
	// Syncs counts explicit fsyncs of the log.
	Syncs uint64 `json:"syncs"`
	// UnsyncedRecords and UnsyncedBytes measure the crash window: records
	// appended (and possibly acknowledged, under SyncInterval or
	// SyncNever) whose covering fsync has not completed yet. Both are
	// conservative — a record appended while a sync was in flight stays
	// counted until the next sync — and both are 0 whenever the log is
	// known durable. Under SyncAlways they are transiently non-zero only
	// while a group commit is in flight and never cover an acknowledged
	// write; with group commit off they are 0 between appends by
	// construction.
	UnsyncedRecords int64 `json:"unsynced_records"`
	UnsyncedBytes   int64 `json:"unsynced_bytes"`
	// Checkpoints and CheckpointErrors count checkpoint attempts since Open.
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointErrors uint64 `json:"checkpoint_errors"`
	// LastCheckpointUnixNano is the wall time of the newest checkpoint
	// written since Open, 0 when none has been written yet this run; /stats
	// reports it once, at the top level, as last_checkpoint_unix.
	LastCheckpointUnixNano int64 `json:"-"`
}

// Store is the durable serving store: an incremental engine whose mutations
// are write-ahead logged and periodically checkpointed. It implements the
// serve package's Journal interface; wire it into serve.Config.Journal and
// route every mutation through the serving core.
//
// The mutating methods (LogAnnotations, LogTuples, Seal, Committed,
// Checkpoint) are not safe for concurrent use — they belong to the serving
// layer's single writer. Stats and Recovery may be read from any goroutine.
//
// With Options.FlushWindow set under SyncAlways (group commit), Seal hands
// out tickets: the serving writer calls it after applying a batch and
// withholds acknowledgements until the ticket resolves, so one background
// fsync covers every batch that arrived while the previous fsync was in
// flight.
type Store struct {
	opts  Options
	cfg   mining.Config
	eopts incremental.Options
	eng   *incremental.Engine
	log   *SegmentedLog

	recovery Recovery

	// epoch is the generation of the newest installed checkpoint. Only the
	// writer stores it; Epoch reads it from any goroutine.
	epoch atomic.Uint64
	// covered is that checkpoint's CoveredCursor, and pendingBytes the frame
	// bytes of the records at or past it — what the size policy measures.
	// Writer-only.
	covered      uint64
	pendingBytes int64

	records          atomic.Uint64
	syncs            atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	lastCheckpoint   atomic.Int64

	// records and appendedBytes count what the writer appended since Open;
	// syncedRecords and syncedBytes how much of it is known durable — the
	// marks a completed fsync observed before it began, or an installed
	// checkpoint captured. The marks only rise, and the differences are
	// the crash window (see unsynced). Safe from any goroutine.
	appendedBytes atomic.Uint64
	syncedRecords atomic.Uint64
	syncedBytes   atomic.Uint64

	// syncer is the background fsync loop the sync policy calls for (see
	// startSyncer); nil when every fsync is inline or left to the OS. The
	// writer's inline fsyncs and the syncer's are never both in use, so
	// syncLog has one caller at a time.
	syncer        *syncLoop
	oldestPending time.Time // writer-only: append time of the oldest un-checkpointed record
	closed        bool
	// inflight tracks a checkpoint being serialized and installed by the
	// background installer goroutine. The writer launches at most one at a
	// time (from Committed), keeps appending while it runs, and trims the
	// covered segments itself once the install completes — the log is
	// writer-owned, so the installer never touches it.
	inflight *pendingInstall
	// failed latches when the log and the in-memory/acknowledged state can
	// no longer be reconciled by this process: an append or its fsync
	// failed (later appends would follow a phantom record that recovery
	// replays), or a checkpoint installed but its covered segments could
	// not be trimmed. The store refuses further appends — clients get
	// errors instead of silent divergence — until a restart recovers. Only
	// the writer and the sync loop set it; health probes read it from any
	// goroutine (Failed), hence the atomic.
	failed atomic.Pointer[error]
}

// Open recovers (or bootstraps) the durable store in opts.Dir.
//
// When a checkpoint exists the engine is rebuilt by mining the relation it
// holds (see RestoreEngine) and the log tail is replayed through the
// ordinary incremental update paths; bootstrap is not called. Otherwise —
// the empty-data-dir case — bootstrap must produce the initial relation, a
// full mine runs, and the first checkpoint is written immediately so the
// next Open reads the relation back from it.
//
// cfg must match across runs of the same directory; the checkpoint
// records a fingerprint of the state-determining facets and Open refuses a
// mismatch rather than silently serving rules mined under other thresholds.
func Open(opts Options, cfg mining.Config, eopts incremental.Options, bootstrap func() (*relation.Relation, error)) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	legacy, err := checkLegacyLog(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, cfg: cfg, eopts: eopts, covered: 1}
	ck, err := storage.ReadCheckpointFile(CheckpointPath(opts.Dir))
	switch {
	case err == nil:
		if want, got := configFingerprint(cfg, opts.Tag), ck.ConfigFingerprint; got != want {
			return nil, fmt.Errorf("wal: %s was written under a different mining configuration\n  checkpoint: %s\n  running:    %s\nrestart with matching flags, or remove the directory to re-mine under the new ones",
				opts.Dir, got, want)
		}
		eng, rerr := RestoreEngine(ck, cfg, eopts)
		if rerr != nil {
			return nil, rerr
		}
		s.eng = eng
		s.recovery.FromCheckpoint = true
		s.epoch.Store(ck.Epoch)
		s.covered = ck.CoveredCursor
	case os.IsNotExist(err):
		// A log with no checkpoint cannot happen under this package's write
		// ordering (the first checkpoint precedes the first append); if one
		// shows up the directory was tampered with and a silent bootstrap
		// would drop its records.
		if holdsRecords(SegmentDir(opts.Dir)) {
			return nil, fmt.Errorf("wal: %s holds a log but no checkpoint; refusing to bootstrap over it", opts.Dir)
		}
		if bootstrap == nil {
			return nil, fmt.Errorf("wal: %s holds no checkpoint and no bootstrap was provided", opts.Dir)
		}
		rel, berr := bootstrap()
		if berr != nil {
			return nil, fmt.Errorf("wal: bootstrap: %w", berr)
		}
		eng, nerr := incremental.New(rel, cfg, eopts)
		if nerr != nil {
			return nil, nerr
		}
		s.eng = eng
	default:
		return nil, err
	}
	// Segments wholly below the covered cursor are deleted first: that
	// finishes a trim a crash interrupted after the checkpoint install.
	log, err := OpenSegmentedFrom(SegmentedOptions{Dir: SegmentDir(opts.Dir), Prefix: "wal", RetainSegments: -1}, s.covered)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.recovery.TornTail = log.TornTail()
	if err := s.replay(); err != nil {
		log.Close()
		return nil, err
	}
	if !s.recovery.FromCheckpoint {
		// First run on this directory: install the initial checkpoint so the
		// next Open recovers without bootstrap.
		if cerr := s.Checkpoint(); cerr != nil {
			log.Close()
			return nil, cerr
		}
	} else if s.pendingBytes > 0 {
		// Replayed records are still only covered by the log; age them from
		// now so the age policy eventually folds them into a checkpoint.
		s.oldestPending = time.Now()
	}
	if legacy {
		// The directory is converted: the checkpoint and the segments hold
		// everything, and the header-only legacy log is dropped. A crash
		// before the removal leaves it to the next open.
		if err := os.Remove(filepath.Join(opts.Dir, "wal.log")); err != nil {
			log.Close()
			return nil, fmt.Errorf("wal: remove converted wal.log: %w", err)
		}
	}
	s.syncer = s.startSyncer()
	s.recovery.Duration = time.Since(start)
	return s, nil
}

// checkLegacyLog inspects the wal.log of a directory written before the
// segmented WAL, reporting whether one is present. A clean close left it at
// its 16-byte header (checkpointed and emptied), and such a directory is
// converted. One that still holds records is refused before anything in
// the directory changes: its records are addressed by byte offsets this
// build does not read.
func checkLegacyLog(dir string) (bool, error) {
	path := filepath.Join(dir, "wal.log")
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("wal: open legacy log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("wal: stat legacy log: %w", err)
	}
	head := make([]byte, len(legacyLogMagic))
	n, _ := io.ReadFull(f, head)
	if n > 0 && string(head[:n]) != legacyLogMagic[:n] {
		return false, fmt.Errorf("wal: %s is not a wal log (bad magic)", path)
	}
	if st.Size() > legacyLogHeaderSize {
		return false, fmt.Errorf("wal: %s holds log records written by a build before the segmented WAL; close the directory cleanly with that build first (a clean close checkpoints and empties wal.log), then open it with this one", path)
	}
	return true, nil
}

// holdsRecords reports whether a segment directory holds a segment longer
// than its header.
func holdsRecords(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && info.Size() > segHeaderSize {
			return true
		}
	}
	return false
}

// replay applies every record at or past the covered cursor through the
// engine's ordinary incremental update paths: the log tail the checkpoint
// does not hold.
func (s *Store) replay() error {
	payloads, err := s.log.ReadFrom(s.covered, math.MaxInt)
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	for i, p := range payloads {
		rec, err := decodePayload(p)
		if err != nil {
			// The frame passed its CRC, so this is not a torn write: refuse
			// to guess and surface it.
			return fmt.Errorf("wal: replay record at cursor %d: %w", s.covered+uint64(i), err)
		}
		if err := s.applyRecord(rec); err != nil {
			return err
		}
		s.pendingBytes += frameHeaderSize + int64(len(p))
	}
	s.recovery.Records = len(payloads)
	return nil
}

// startSyncer starts the background fsync loop the options call for, once,
// at the end of Open:
//
//   - group commit (SyncAlways with a flush window): Seal takes a ticket,
//     and the loop lingers up to the window unless maxGroupBytes of log
//     are already unsynced;
//   - SyncInterval: append pokes the loop, which lingers one cadence and
//     syncs, so an acknowledged record waits at most one interval for its
//     fsync even when appends pause.
//
// A failed sync latches the store (syncLog).
func (s *Store) startSyncer() *syncLoop {
	switch {
	case s.opts.groupCommit():
		full := func() bool { _, bytes := s.unsynced(); return bytes >= maxGroupBytes }
		return startSyncLoop(s.opts.flushWindow(), full, s.syncLog)
	case s.opts.Sync == SyncInterval:
		return startSyncLoop(s.opts.syncEvery(), nil, s.syncLog)
	}
	return nil
}

// HasPendingRecords reports whether the log holds records not yet covered
// by a checkpoint. Belongs to the single writer, like the mutating methods.
func (s *Store) HasPendingRecords() bool { return s.log.NextCursor() > s.covered }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Failed reports the latched unrecoverable-in-process failure (an append
// or fsync failure, or a post-checkpoint trim failure), or nil while the
// store is healthy. Once non-nil it stays non-nil: appends are refused and
// the process should be restarted so recovery replays a consistent prefix.
// Safe from any goroutine; health endpoints surface it.
func (s *Store) Failed() error {
	if p := s.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// latch records the first unrecoverable failure. Safe from any goroutine
// (the writer, the background sync loop): CAS keeps the first failure.
func (s *Store) latch(err error) {
	s.failed.CompareAndSwap(nil, &err)
}

// Epoch returns the generation of the newest installed checkpoint. It
// advances with every installed checkpoint; a sharded deployment records
// the per-shard epoch vector in its manifest so a shard directory restored
// from an older backup is detected at open instead of silently serving a
// rolled-back generation. Safe from any goroutine.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Engine returns the recovered (or freshly bootstrapped) engine. The serving
// layer takes ownership of it via serve.New.
func (s *Store) Engine() *incremental.Engine { return s.eng }

// Recovery reports what Open found and did.
func (s *Store) Recovery() Recovery { return s.recovery }

// Stats returns current durability counters. Safe from any goroutine.
func (s *Store) Stats() Stats {
	unsyncedRecords, unsyncedBytes := s.unsynced()
	return Stats{
		RecordsAppended:        s.records.Load(),
		LogBytes:               s.log.Stats().RetainedBytes,
		Syncs:                  s.syncs.Load(),
		UnsyncedRecords:        unsyncedRecords,
		UnsyncedBytes:          unsyncedBytes,
		Checkpoints:            s.checkpoints.Load(),
		CheckpointErrors:       s.checkpointErrors.Load(),
		LastCheckpointUnixNano: s.lastCheckpoint.Load(),
	}
}

// LogAnnotations appends an annotation batch record (attach, or detach when
// remove is set) to the log, honoring the sync policy. Part of the serve
// package's Journal contract: called by the single writer before the batch
// is applied to the engine. Empty batches append nothing.
func (s *Store) LogAnnotations(updates []relation.AnnotationUpdate, remove bool) error {
	if len(updates) == 0 {
		return nil
	}
	dict := s.eng.Relation().Dictionary()
	recUpdates := make([]Update, len(updates))
	for i, u := range updates {
		tok, ok := dict.TokenOK(u.Annotation)
		if !ok {
			return fmt.Errorf("wal: log annotations: item %v has no token", u.Annotation)
		}
		recUpdates[i] = Update{Tuple: u.Index, Annotation: tok}
	}
	kind := KindAddAnnotations
	if remove {
		kind = KindRemoveAnnotations
	}
	return s.append(Record{Kind: kind, Updates: recUpdates})
}

// LogTuples appends a tuple batch record to the log, honoring the sync
// policy. Part of the serve package's Journal contract. Empty batches
// append nothing.
func (s *Store) LogTuples(tuples []relation.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	dict := s.eng.Relation().Dictionary()
	specs := make([]TupleSpec, len(tuples))
	for i, tu := range tuples {
		values, err := tokensOf(dict, tu.Data)
		if err != nil {
			return err
		}
		annots, err := tokensOf(dict, tu.Annots)
		if err != nil {
			return err
		}
		specs[i] = TupleSpec{Values: values, Annotations: annots}
	}
	return s.append(Record{Kind: KindAddTuples, Tuples: specs})
}

func tokensOf(dict *relation.Dictionary, s itemset.Itemset) ([]string, error) {
	if len(s) == 0 {
		return nil, nil
	}
	out := make([]string, len(s))
	for i, it := range s {
		tok, ok := dict.TokenOK(it)
		if !ok {
			return nil, fmt.Errorf("wal: log tuples: item %v has no token", it)
		}
		out[i] = tok
	}
	return out, nil
}

func (s *Store) append(rec Record) error {
	if s.closed {
		return errors.New("wal: store closed")
	}
	if err := s.Failed(); err != nil {
		return fmt.Errorf("wal: store failed, refusing append (restart to recover): %w", err)
	}
	payload, err := encodePayload(rec)
	if err != nil {
		return err
	}
	if s.oldestPending.IsZero() {
		s.oldestPending = time.Now()
	}
	if cursor, err := s.log.Append(payload); err != nil {
		if s.log.NextCursor() > cursor {
			// The record landed but a rotation after it failed, and its
			// batch will be failed: a later record must not follow it.
			s.latch(err)
		}
		return err
	}
	frameLen := frameHeaderSize + len(payload)
	s.pendingBytes += int64(frameLen)
	s.appendedBytes.Add(uint64(frameLen))
	s.records.Add(1)
	switch {
	case s.opts.Sync == SyncInterval:
		s.syncer.poke()
	case s.opts.Sync == SyncAlways && s.syncer == nil:
		// Group commit off: the record is fsynced before its batch can be
		// acknowledged. Under group commit Seal's covering fsync does that.
		return s.syncLog()
	}
	return nil
}

// syncLog fsyncs the log, unless nothing is unsynced, and raises the
// synced marks to what was appended when the fsync began. Records appended
// while the fsync is in flight stay unsynced (conservative: the counters
// never claim durability a crash could disprove). Called by the writer when
// every fsync is inline, otherwise by the sync loop alone.
//
// A failed fsync latches the store: the record is in the file but its batch
// will be failed, so later appends would land after a phantom record that
// recovery replays, silently shifting every subsequent tuple index. A
// restart replays a consistent prefix instead.
func (s *Store) syncLog() error {
	if err := s.Failed(); err != nil {
		return err
	}
	recs, bytes := s.records.Load(), s.appendedBytes.Load()
	if recs == s.syncedRecords.Load() {
		return nil
	}
	if err := s.log.Sync(); err != nil {
		s.latch(err)
		return err
	}
	s.markSynced(recs, bytes)
	s.syncs.Add(1)
	return nil
}

// markSynced raises the synced marks to records and bytes.
func (s *Store) markSynced(records, bytes uint64) {
	raise(&s.syncedRecords, records)
	raise(&s.syncedBytes, bytes)
}

// raise lifts an only-rising mark to v.
func raise(mark *atomic.Uint64, v uint64) {
	for cur := mark.Load(); cur < v && !mark.CompareAndSwap(cur, v); cur = mark.Load() {
	}
}

// unsynced measures the crash window: the records and frame bytes appended
// whose durability is not known yet. The marks are read before the counts,
// which are never below them, so neither difference is negative.
func (s *Store) unsynced() (records, bytes int64) {
	sr, sb := s.syncedRecords.Load(), s.syncedBytes.Load()
	return int64(s.records.Load() - sr), int64(s.appendedBytes.Load() - sb)
}

// Seal implements the serve package's Journal contract: it returns a
// ticket that resolves once one background fsync covers every record
// appended before the call, or nil when those records are already as
// durable as the sync policy promises (group commit off, nothing unsynced,
// or a policy that never gates acknowledgements on fsync). Writer-only,
// like the Log* methods.
func (s *Store) Seal() <-chan error {
	if recs, _ := s.unsynced(); !s.opts.groupCommit() || recs == 0 {
		// Nothing to wait for: group commit off, or nothing appended since
		// the last covering fsync (e.g. every group in the batch failed
		// validation before reaching the log).
		return nil
	}
	return s.syncer.ticket()
}

// pendingInstall is one background checkpoint install: the epoch and log
// coverage captured by the writer, and the channel the installer reports
// its WriteCheckpointFile result on.
type pendingInstall struct {
	epoch   uint64
	covered uint64
	// bytes is the frame bytes below covered that were still pending at
	// capture: what the install takes off pendingBytes. appendedRecords and
	// appendedBytes are the append counts at capture, which the installed
	// checkpoint makes durable.
	bytes                          int64
	appendedRecords, appendedBytes uint64
	takenAt                        time.Time
	done                           chan error
}

// capture pins the state a checkpoint will serialize: the relation view
// and the lifetime counters (one engine lock acquisition, O(1) — the
// relation is pinned copy-on-write, not copied), the next epoch, and the
// log's next cursor, below which the capture holds every record. Everything
// in the result is immutable or private, so serialization may proceed off
// the writer goroutine while the engine keeps applying updates.
func (s *Store) capture() (*storage.Checkpoint, *pendingInstall) {
	st := s.eng.State()
	ck := &storage.Checkpoint{
		CheckpointMeta: storage.CheckpointMeta{
			Epoch:             s.epoch.Load() + 1,
			CoveredCursor:     s.log.NextCursor(),
			ConfigFingerprint: configFingerprint(s.cfg, s.opts.Tag),
		},
		Relation: st.Relation,
		Counters: countersFromStats(st.Stats),
	}
	return ck, &pendingInstall{
		epoch:           ck.Epoch,
		covered:         ck.CoveredCursor,
		bytes:           s.pendingBytes,
		appendedRecords: s.records.Load(),
		appendedBytes:   s.appendedBytes.Load(),
		takenAt:         time.Now(),
		done:            make(chan error, 1),
	}
}

// finishInstall collects a completed background install and trims the
// segments it covers (records appended after the capture stay). With wait
// set it blocks until the install completes; otherwise an install still in
// flight is left alone. Writer-only.
func (s *Store) finishInstall(wait bool) error {
	in := s.inflight
	if in == nil {
		return nil
	}
	var err error
	if wait {
		err = <-in.done
	} else {
		select {
		case err = <-in.done:
		default:
			return nil // still serializing; check again next Committed
		}
	}
	s.inflight = nil
	if err != nil {
		return err // counted by the installer; policy will retry
	}
	return s.finishTrim(in)
}

// finishTrim completes a durably installed checkpoint: the store adopts its
// epoch and coverage, and the log deletes the segments it covers.
func (s *Store) finishTrim(in *pendingInstall) error {
	s.epoch.Store(in.epoch)
	s.covered = in.covered
	s.pendingBytes -= in.bytes
	if err := s.log.TrimBelow(in.covered); err != nil {
		// The checkpoint is installed and recovery would finish the trim,
		// but this process no longer knows the shape of its log. Latch so
		// appends refuse instead of risking acknowledged writes.
		s.latch(err)
		s.checkpointErrors.Add(1)
		return err
	}
	s.markSynced(in.appendedRecords, in.appendedBytes)
	s.checkpoints.Add(1)
	s.lastCheckpoint.Store(time.Now().UnixNano())
	if s.pendingBytes > 0 {
		// Records appended while the install ran are still uncovered; age
		// them from the capture, the latest moment they all existed after.
		s.oldestPending = in.takenAt
	} else {
		s.oldestPending = time.Time{}
	}
	return nil
}

// Committed runs the checkpoint policy. Part of the serve package's Journal
// contract: called by the single writer after the logged batch has been
// applied to the engine and the fresh snapshot published, which is the
// earliest moment a checkpoint may cover the batch.
//
// Checkpoints triggered here run in the background: Committed captures the
// state (cheap — the relation is pinned as a copy-on-write view) and hands
// serialization, fsync, and the atomic install to an installer goroutine,
// so the writer keeps applying batches at full speed while the checkpoint
// is written. The next Committed (or Checkpoint, or Close) collects the
// result and trims the segments it covers.
func (s *Store) Committed() error {
	if err := s.finishInstall(false); err != nil {
		return err
	}
	if s.closed || s.inflight != nil || !s.shouldCheckpoint() {
		return nil
	}
	if err := s.Failed(); err != nil {
		return fmt.Errorf("wal: store failed (restart to recover): %w", err)
	}
	ck, in := s.capture()
	s.inflight = in
	path := CheckpointPath(s.opts.Dir)
	go func() {
		err := storage.WriteCheckpointFile(path, ck)
		if err != nil {
			s.checkpointErrors.Add(1)
		}
		in.done <- err
	}()
	return nil
}

func (s *Store) shouldCheckpoint() bool {
	pending := s.pendingBytes
	if pending <= 0 {
		return false
	}
	if cb := s.opts.checkpointBytes(); cb > 0 && pending >= cb {
		return true
	}
	if age := s.opts.CheckpointAge; age > 0 && time.Since(s.oldestPending) >= age {
		return true
	}
	return false
}

// Checkpoint synchronously captures the engine's current state, serializes
// the pinned relation view without holding any engine or relation lock,
// installs the file with storage.InstallFile under the next epoch, and
// trims the segments it covers. A background install still in flight
// is collected first. Belongs to the single writer; the serving core's
// writer loop guarantees the engine is not mutated concurrently with the
// capture.
func (s *Store) Checkpoint() error {
	if s.closed {
		return errors.New("wal: store closed")
	}
	if err := s.finishInstall(true); err != nil {
		return err
	}
	if err := s.Failed(); err != nil {
		return fmt.Errorf("wal: store failed (restart to recover): %w", err)
	}
	ck, in := s.capture()
	if err := storage.WriteCheckpointFile(CheckpointPath(s.opts.Dir), ck); err != nil {
		s.checkpointErrors.Add(1)
		return err
	}
	return s.finishTrim(in)
}

// Close collects any in-flight background checkpoint, then syncs and closes
// the log. Close the serving core first so the writer loop has drained:
// records appended after Close are lost errors. The store is unusable
// afterwards; reopen with Open.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	// A failed install is safe to drop: the old checkpoint plus the full
	// log still recover everything acknowledged.
	_ = s.finishInstall(true)
	// Stop the sync loop before closing the log so no background fsync
	// targets a closed handle. Outstanding seal tickets (a misordered
	// caller's) are resolved with a final sync on the way out.
	s.syncer.stop()
	s.closed = true
	return s.log.Close()
}

// applyRecord replays one log record through the engine's ordinary
// incremental update paths, resolving its tokens under the write-path rule
// (relation.Dictionary.ResolveUpdates and ResolveTuples) in log order, so
// interning is deterministic. A token of the wrong kind means the record
// itself is corrupt.
func (s *Store) applyRecord(rec Record) error {
	dict := s.eng.Relation().Dictionary()
	switch rec.Kind {
	case KindAddAnnotations, KindRemoveAnnotations:
		updates, err := dict.ResolveUpdates(rec.Updates)
		if err != nil {
			return replayError(err)
		}
		if rec.Kind == KindAddAnnotations {
			_, err = s.eng.AddAnnotations(updates)
		} else {
			_, err = s.eng.RemoveAnnotations(updates)
		}
		return err
	case KindAddTuples:
		tuples, err := dict.ResolveTuples(rec.Tuples)
		if err != nil {
			return replayError(err)
		}
		_, err = s.eng.AddTuples(tuples)
		return err
	default:
		return badRecord("unknown kind %v", rec.Kind)
	}
}

// replayError gives a record's resolution failure its replay context; a
// token logged in the wrong kind's role is an *ErrRecordCorrupt.
func replayError(err error) error {
	var ke *relation.KindError
	if errors.As(err, &ke) {
		err = badRecord("%v", err)
	}
	return fmt.Errorf("wal: replay: %w", err)
}

// countersFromStats flattens engine lifetime counters into the checkpoint's
// opaque counter block. Order is part of the on-disk format; append only.
func countersFromStats(st incremental.Stats) []int64 {
	return []int64{
		int64(st.Bootstraps),
		int64(st.Case1),
		int64(st.Case2),
		int64(st.Case3),
		int64(st.Removals),
		int64(st.Remines),
		int64(st.Promotions),
		int64(st.Demotions),
		int64(st.Discoveries),
	}
}

// statsFromCounters is the inverse of countersFromStats, tolerating shorter
// blocks from older checkpoints.
func statsFromCounters(c []int64) incremental.Stats {
	var st incremental.Stats
	fields := []*int{
		&st.Bootstraps, &st.Case1, &st.Case2, &st.Case3, &st.Removals,
		&st.Remines, &st.Promotions, &st.Demotions, &st.Discoveries,
	}
	for i, f := range fields {
		if i < len(c) {
			*f = int(c[i])
		}
	}
	return st
}
