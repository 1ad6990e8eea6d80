package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

// LogPath returns the log file location inside a data dir.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

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

// Recovery summarizes what Open found and did.
type Recovery struct {
	// FromCheckpoint reports that the engine was restored from a checkpoint
	// (no bootstrap mine); false means the store was bootstrapped fresh.
	FromCheckpoint bool
	// Records is the number of log records replayed after the checkpoint.
	Records int
	// TornTail reports that a torn final record was dropped and truncated.
	TornTail bool
	// StaleLogDropped reports that the log predated the checkpoint (the
	// artifact of a crash between checkpoint install and log truncation)
	// and was discarded whole: every record in it was already folded into
	// the checkpoint, so replaying would double-apply.
	StaleLogDropped bool
	// Duration is the wall time of the whole Open, mine or recovery included.
	Duration time.Duration
}

// Stats reports durability activity since Open.
type Stats struct {
	// Records and LogBytes describe the appended log: records written since
	// Open and the current log file size (truncated by checkpoints).
	Records  uint64
	LogBytes int64
	// Syncs counts explicit fsyncs of the log.
	Syncs uint64
	// UnsyncedRecords and UnsyncedBytes measure the crash window: records
	// appended (and possibly acknowledged, under SyncInterval or
	// SyncNever) whose covering fsync has not completed yet. Both are
	// conservative — a record appended while a sync was in flight stays
	// counted until the next sync — and both are 0 whenever the log is
	// known durable. Under SyncAlways with group commit off they are 0
	// between appends by construction.
	UnsyncedRecords int64
	UnsyncedBytes   int64
	// Checkpoints and CheckpointErrors count checkpoint attempts since Open.
	Checkpoints      uint64
	CheckpointErrors uint64
	// LastCheckpointUnixNano is the wall time of the newest checkpoint
	// written since Open, 0 when none has been written yet this run.
	LastCheckpointUnixNano int64
	// Recovery echoes what Open found.
	Recovery Recovery
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
// With Options.FlushWindow set (group commit), Store also satisfies the
// serve package's GroupJournal interface: the serving writer calls Seal
// after applying a batch and withholds acknowledgements until the returned
// ticket resolves, so one committer fsync covers every batch that arrived
// while the previous fsync was in flight.
type Store struct {
	opts  Options
	cfg   mining.Config
	eopts incremental.Options
	eng   *incremental.Engine
	log   *Log

	recovery Recovery

	records          atomic.Uint64
	logBytes         atomic.Int64
	syncs            atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	lastCheckpoint   atomic.Int64

	// unsyncedRecords and unsyncedBytes track appended records whose
	// covering fsync has not completed: the writer adds on append, syncLog
	// subtracts (under logMu) what it observed before fsyncing. Safe to
	// read from any goroutine.
	unsyncedRecords atomic.Int64
	unsyncedBytes   atomic.Int64

	// logMu serializes every fsync issued off the writer goroutine (the
	// group committer, the interval flusher) against TruncateKeep, which
	// swaps the log's file handle: an fsync concurrent with the swap could
	// target a closed fd. The writer's own appends never race these — the
	// log is only appended from the writer goroutine.
	logMu sync.Mutex

	// Group-commit plumbing: Seal hands tickets to the committer via
	// sealCh; bgQuit/bgDone bound the committer's (or the interval
	// flusher's) lifetime. Nil/unused when no background syncer runs.
	sealCh        chan chan error
	bgQuit        chan struct{}
	bgDone        chan struct{}
	bgRuns        bool
	lastSync      time.Time // writer-only
	oldestPending time.Time // writer-only: append time of the oldest un-checkpointed record
	closed        bool
	// inflight tracks a checkpoint being serialized and installed by the
	// background installer goroutine. The writer launches at most one at a
	// time (from Committed), keeps appending while it runs, and finishes the
	// log truncation itself once the install completes — the log is
	// writer-owned, so the installer never touches it.
	inflight *pendingInstall
	// failed latches when the log and the in-memory/acknowledged state can
	// no longer be reconciled by this process: a checkpoint installed but
	// the log could not be truncated to the new epoch (appends would be
	// discarded by the next recovery), or an append landed in the file but
	// its fsync failed (later appends would follow a phantom record that
	// recovery replays). The store refuses further appends — clients get
	// errors instead of silent divergence — until a restart recovers. Only
	// the writer sets it; health probes read it from any goroutine (Failed),
	// hence the atomic.
	failed atomic.Pointer[error]
}

// Open recovers (or bootstraps) the durable store in opts.Dir.
//
// When a checkpoint exists the engine is restored from it without mining and
// the log tail is replayed through the ordinary incremental update paths;
// bootstrap is not called. Otherwise — the empty-data-dir case — bootstrap
// must produce the initial relation, a full mine runs, and the first
// checkpoint is written immediately so the next Open skips the mine.
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
	s := &Store{opts: opts, cfg: cfg, eopts: eopts}
	ckEpoch := uint64(0)
	ckCovered := uint64(0)
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
		ckEpoch = ck.Epoch
		ckCovered = ck.CoveredBytes
	case os.IsNotExist(err):
		// A log with no checkpoint cannot happen under this package's write
		// ordering (the first checkpoint precedes the first append); if one
		// shows up the directory was tampered with and a silent bootstrap
		// would drop its records.
		if fi, statErr := os.Stat(LogPath(opts.Dir)); statErr == nil && fi.Size() > logHeaderSize {
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
	log, err := OpenLog(LogPath(opts.Dir), ckEpoch)
	if err != nil {
		return nil, err
	}
	s.log = log
	switch {
	case log.Epoch() == ckEpoch:
		info, rerr := log.Replay(s.applyRecord)
		if rerr != nil {
			log.Close()
			return nil, rerr
		}
		s.recovery.Records = info.Records
		s.recovery.TornTail = info.TornTail
	case log.Epoch()+1 == ckEpoch:
		// Crash between checkpoint install and log truncation. The
		// checkpoint covers the log exactly up to its CoveredBytes (the log
		// size at capture); records after that offset were appended while
		// the checkpoint was serialized in the background and are NOT
		// folded in. Skip the covered prefix (replaying it would
		// double-apply), replay the tail, then finish the interrupted
		// truncation so the tail survives under the checkpoint's epoch.
		covered := int64(ckCovered)
		if covered < logHeaderSize {
			covered = logHeaderSize
		}
		if covered > log.Size() {
			// The surviving file is shorter than the capture saw (unsynced
			// appends lost with the crash): everything on disk is covered.
			covered = log.Size()
		}
		info, rerr := log.ReplayFrom(covered, s.applyRecord)
		if rerr != nil {
			log.Close()
			return nil, rerr
		}
		s.recovery.Records = info.Records
		s.recovery.TornTail = info.TornTail
		s.recovery.StaleLogDropped = covered > logHeaderSize
		if terr := log.TruncateKeep(ckEpoch, covered); terr != nil {
			log.Close()
			return nil, terr
		}
	case log.Epoch() > ckEpoch:
		log.Close()
		return nil, fmt.Errorf("wal: %s log epoch %d is ahead of checkpoint epoch %d (checkpoint rolled back?)",
			opts.Dir, log.Epoch(), ckEpoch)
	default:
		log.Close()
		return nil, fmt.Errorf("wal: %s log epoch %d is more than one generation behind checkpoint epoch %d (log rolled back?)",
			opts.Dir, log.Epoch(), ckEpoch)
	}
	if !s.recovery.FromCheckpoint {
		// First run on this directory: install the initial checkpoint so the
		// next Open restores instead of re-mining.
		if cerr := s.Checkpoint(); cerr != nil {
			log.Close()
			return nil, cerr
		}
	} else if log.Size() > logHeaderSize {
		// Replayed records are still only covered by the log; age them from
		// now so the age policy eventually folds them into a checkpoint.
		s.oldestPending = time.Now()
	}
	s.logBytes.Store(log.Size())
	s.startBackground()
	s.recovery.Duration = time.Since(start)
	return s, nil
}

// startBackground launches the sync goroutine the options call for: the
// group committer (SyncAlways with a flush window) or the interval flusher
// (SyncInterval, so the crash window stays bounded by the cadence even when
// appends pause). Called once at the end of Open.
func (s *Store) startBackground() {
	switch {
	case s.opts.groupCommit():
		s.sealCh = make(chan chan error, 256)
		s.bgQuit = make(chan struct{})
		s.bgDone = make(chan struct{})
		s.bgRuns = true
		go s.committer()
	case s.opts.Sync == SyncInterval:
		s.bgQuit = make(chan struct{})
		s.bgDone = make(chan struct{})
		s.bgRuns = true
		go s.intervalFlusher()
	}
}

// stopBackground stops the committer or flusher and waits it out. Writer-only.
func (s *Store) stopBackground() {
	if !s.bgRuns {
		return
	}
	s.bgRuns = false
	close(s.bgQuit)
	<-s.bgDone
}

// HasPendingRecords reports whether the log holds records not yet covered
// by a checkpoint. Belongs to the single writer, like the mutating methods.
func (s *Store) HasPendingRecords() bool { return s.log.Size() > logHeaderSize }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Failed reports the latched unrecoverable-in-process failure (an append
// fsync failure or a post-checkpoint truncation failure), or nil while the
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
// (the writer, the group committer, the interval flusher): CAS keeps the
// first failure.
func (s *Store) latch(err error) {
	s.failed.CompareAndSwap(nil, &err)
}

// Epoch returns the checkpoint generation the log currently extends. It
// advances with every installed checkpoint; a sharded deployment records
// the per-shard epoch vector in its manifest so a shard directory restored
// from an older backup is detected at open instead of silently serving a
// rolled-back generation.
func (s *Store) Epoch() uint64 { return s.log.Epoch() }

// Engine returns the recovered (or freshly bootstrapped) engine. The serving
// layer takes ownership of it via serve.New.
func (s *Store) Engine() *incremental.Engine { return s.eng }

// Recovery reports what Open found and did.
func (s *Store) Recovery() Recovery { return s.recovery }

// Stats returns current durability counters. Safe from any goroutine.
func (s *Store) Stats() Stats {
	return Stats{
		Records:                s.records.Load(),
		LogBytes:               s.logBytes.Load(),
		Syncs:                  s.syncs.Load(),
		UnsyncedRecords:        s.unsyncedRecords.Load(),
		UnsyncedBytes:          s.unsyncedBytes.Load(),
		Checkpoints:            s.checkpoints.Load(),
		CheckpointErrors:       s.checkpointErrors.Load(),
		LastCheckpointUnixNano: s.lastCheckpoint.Load(),
		Recovery:               s.recovery,
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
	if s.oldestPending.IsZero() {
		s.oldestPending = time.Now()
	}
	frameLen, err := s.log.Append(rec, s.opts.Encoding)
	if err != nil {
		return err
	}
	s.records.Add(1)
	s.logBytes.Store(s.log.Size())
	s.unsyncedRecords.Add(1)
	s.unsyncedBytes.Add(frameLen)
	switch s.opts.Sync {
	case SyncAlways:
		if s.opts.groupCommit() {
			// The committer's covering fsync makes the record durable before
			// the serving writer acknowledges it (Seal); syncing here too
			// would reintroduce the per-batch fsync group commit removes.
			break
		}
		if err := s.syncLog(); err != nil {
			// The record is in the file but the batch will be failed: later
			// appends would land after a phantom record that recovery
			// replays, silently shifting every subsequent tuple index.
			// Latch instead; a restart replays a consistent prefix.
			s.latch(err)
			return err
		}
		s.lastSync = time.Now()
	case SyncInterval:
		if time.Since(s.lastSync) >= s.opts.syncEvery() {
			if err := s.syncLog(); err != nil {
				s.latch(err)
				return err
			}
			s.lastSync = time.Now()
		}
	case SyncNever:
	}
	return nil
}

// syncLog fsyncs the log under logMu and credits the unsynced counters with
// what was pending when the fsync began. Records appended while the fsync
// is in flight stay counted (conservative: the counters never claim
// durability a crash could disprove). Safe from the writer, the committer,
// and the interval flusher; logMu also keeps the fsync from racing
// TruncateKeep's file swap.
func (s *Store) syncLog() error {
	s.logMu.Lock()
	recs := s.unsyncedRecords.Load()
	bytes := s.unsyncedBytes.Load()
	//annotlint:ignore lockio the fsync must hold logMu: it orders against TruncateKeep's file-handle swap, and the committer batches so only one fsync is ever in flight
	err := s.log.Sync()
	if err == nil {
		s.unsyncedRecords.Add(-recs)
		s.unsyncedBytes.Add(-bytes)
	}
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	s.syncs.Add(1)
	return nil
}

// Seal implements the serve package's GroupJournal contract: it returns a
// ticket that resolves once one committer fsync covers every record
// appended before the call, or nil when those records are already as
// durable as the sync policy promises (group commit off, nothing unsynced,
// or a policy that never gates acknowledgements on fsync). Writer-only,
// like the Log* methods.
func (s *Store) Seal() <-chan error {
	if !s.opts.groupCommit() {
		return nil
	}
	if s.unsyncedRecords.Load() == 0 {
		// Nothing appended since the last covering fsync (e.g. every group
		// in the batch failed validation before reaching the log).
		return nil
	}
	t := make(chan error, 1)
	s.sealCh <- t
	return t
}

// committer is the group-commit loop: it collects seal tickets, optionally
// lingers up to the flush window (cut short once MaxGroupBytes of unsynced
// appends accumulate), then issues one fsync and resolves every collected
// ticket with its outcome. Tickets that arrive while an fsync is in flight
// simply queue in sealCh and ride the next fsync — that overlap, not the
// linger, is where group commit's throughput comes from.
func (s *Store) committer() {
	defer close(s.bgDone)
	window := s.opts.flushWindow()
	maxBytes := s.opts.maxGroupBytes()
	for {
		select {
		case <-s.bgQuit:
			s.drainTickets()
			return
		case t := <-s.sealCh:
			pending := []chan error{t}
			if window > 0 && s.unsyncedBytes.Load() < maxBytes {
				deadline := time.NewTimer(window)
			linger:
				for {
					select {
					case t2 := <-s.sealCh:
						pending = append(pending, t2)
						if s.unsyncedBytes.Load() >= maxBytes {
							break linger
						}
					case <-deadline.C:
						break linger
					case <-s.bgQuit:
						break linger
					}
				}
				deadline.Stop()
			} else {
				// No linger: absorb whatever is already queued so one fsync
				// covers it all, but never wait.
				for {
					select {
					case t2 := <-s.sealCh:
						pending = append(pending, t2)
						continue
					default:
					}
					break
				}
			}
			err := s.commitGroup()
			for _, p := range pending {
				p <- err
			}
		}
	}
}

// commitGroup issues one covering fsync, latching the store on failure so
// later appends refuse instead of extending a log whose tail may be phantom.
func (s *Store) commitGroup() error {
	if err := s.Failed(); err != nil {
		return err
	}
	if err := s.syncLog(); err != nil {
		s.latch(err)
		return err
	}
	return nil
}

// drainTickets resolves tickets still queued at shutdown with a final
// commit. In the supported teardown order (serving core first, then the
// store) the queue is already empty; this keeps a misordered caller from
// deadlocking its acker instead of getting an error.
func (s *Store) drainTickets() {
	for {
		select {
		case t := <-s.sealCh:
			t <- s.commitGroup()
		default:
			return
		}
	}
}

// intervalFlusher bounds the SyncInterval crash window: appends only fsync
// when one lands after the cadence expires, so a burst followed by silence
// used to leave its tail unsynced (and acknowledged) indefinitely. The
// flusher syncs any pending tail once per cadence regardless of append
// traffic.
func (s *Store) intervalFlusher() {
	defer close(s.bgDone)
	tick := time.NewTicker(s.opts.syncEvery())
	defer tick.Stop()
	for {
		select {
		case <-s.bgQuit:
			return
		case <-tick.C:
			if s.unsyncedRecords.Load() == 0 || s.Failed() != nil {
				continue
			}
			if err := s.syncLog(); err != nil {
				s.latch(err)
			}
		}
	}
}

// pendingInstall is one background checkpoint install: the epoch and log
// coverage captured by the writer, and the channel the installer reports
// its WriteCheckpointFile result on.
type pendingInstall struct {
	epoch   uint64
	covered int64
	takenAt time.Time
	done    chan error
}

// capture pins the state a checkpoint will serialize: the engine state with
// its relation view (one engine lock acquisition, O(rules) — the relation is
// pinned copy-on-write, not copied), the next epoch, and how much of the
// log the capture covers. Everything in the result is immutable or private,
// so serialization may proceed off the writer goroutine while the engine
// keeps applying updates.
func (s *Store) capture() *storage.Checkpoint {
	st := s.eng.State()
	return &storage.Checkpoint{
		Epoch:             s.log.Epoch() + 1,
		CoveredBytes:      uint64(s.log.Size()),
		ConfigFingerprint: configFingerprint(s.cfg, s.opts.Tag),
		Relation:          st.Relation,
		Valid:             st.Valid,
		Candidates:        st.Candidates,
		DataPatterns:      st.DataPatterns,
		AnnotPatterns:     st.AnnotPatterns,
		Counters:          countersFromStats(st.Stats),
	}
}

// finishInstall collects a completed background install, truncating the log
// up to the covered offset (records appended after the capture survive into
// the new epoch). With wait set it blocks until the install completes;
// otherwise an install still in flight is left alone. Writer-only.
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
	return s.finishTruncate(in.epoch, in.covered, in.takenAt)
}

// finishTruncate completes a durably installed checkpoint: the log drops
// the covered prefix and keeps any tail appended since the capture.
func (s *Store) finishTruncate(epoch uint64, covered int64, takenAt time.Time) error {
	// TruncateKeep swaps the log's file handle (installs the rewritten log
	// and reopens it); logMu keeps the committer or interval flusher from
	// fsyncing the old handle mid-swap. The rewritten tail is durable when
	// TruncateKeep returns, so whatever was unsynced at that point is
	// credited — snapshot under the same lock so a concurrent syncLog can't
	// double-subtract.
	s.logMu.Lock()
	recs := s.unsyncedRecords.Load()
	bytes := s.unsyncedBytes.Load()
	//annotlint:ignore lockio the file-handle swap must hold logMu so no committer fsyncs the old handle mid-swap; truncation is rare (one per checkpoint) and appends already queue behind it
	err := s.log.TruncateKeep(epoch, covered)
	if err == nil {
		s.unsyncedRecords.Add(-recs)
		s.unsyncedBytes.Add(-bytes)
	}
	s.logMu.Unlock()
	if err != nil {
		// The checkpoint is installed but the log still carries the old
		// epoch: recovery would re-skip the covered prefix, but this
		// process can no longer prove what an append covers. Latch so
		// appends refuse instead of risking acknowledged writes.
		s.latch(err)
		s.checkpointErrors.Add(1)
		return err
	}
	s.checkpoints.Add(1)
	s.lastCheckpoint.Store(time.Now().UnixNano())
	s.logBytes.Store(s.log.Size())
	if s.log.Size() > logHeaderSize {
		// Records appended while the install ran are still uncovered; age
		// them from the capture, the latest moment they all existed after.
		s.oldestPending = takenAt
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
// result and truncates the log's covered prefix.
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
	ck := s.capture()
	in := &pendingInstall{
		epoch:   ck.Epoch,
		covered: int64(ck.CoveredBytes),
		takenAt: time.Now(),
		done:    make(chan error, 1),
	}
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
	pending := s.log.Size() - logHeaderSize
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
// truncates the log's covered prefix. A background install still in flight
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
	ck := s.capture()
	takenAt := time.Now()
	if err := storage.WriteCheckpointFile(CheckpointPath(s.opts.Dir), ck); err != nil {
		s.checkpointErrors.Add(1)
		return err
	}
	return s.finishTruncate(ck.Epoch, int64(ck.CoveredBytes), takenAt)
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
	// Stop the committer/flusher before closing the log so no background
	// fsync targets a closed handle. Outstanding seal tickets (a misordered
	// caller's) are resolved with a final commit on the way out.
	s.stopBackground()
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
		// Route exactly as the serving writer does: any annotated tuple in
		// the batch selects the Case 1 path.
		if slices.ContainsFunc(tuples, relation.Tuple.Annotated) {
			_, err = s.eng.AddAnnotatedTuples(tuples)
		} else {
			_, err = s.eng.AddUnannotatedTuples(tuples)
		}
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
