// Package lockio implements the annotlint analyzer enforcing the hot-lock
// contract: while one of the configured hot mutexes is held (the segmented
// log's append lock, the incremental engine's lock, the stream broker's
// lock, the shard router's append lock), no blocking I/O may run — no os.File
// writes or fsyncs, no WAL appends, no HTTP calls, no channel sends, no
// sleeps — because every reader, writer, or health probe that needs the
// same lock would stall behind the disk or the network. The analyzer also
// checks that every hot-lock Lock() is paired with an Unlock() (direct or
// deferred) on every return path of the function that acquired it.
//
// The check is intraprocedural and deliberately conservative: branches are
// merged by intersection (a lock released on either arm is treated as
// released), goroutine bodies and function literals are analyzed as
// independent functions (code inside `go func(){...}()` does not run under
// the spawner's locks), and designed exceptions carry //annotlint:ignore
// markers stating the reason.
package lockio

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"

	"annotadb/internal/analysis"
)

// Config names the hot locks and the calls considered blocking I/O.
type Config struct {
	// Locks are struct fields of type sync.Mutex/RWMutex, as
	// "pkgpath.Type.field" keys.
	Locks []string
	// IO are the blocking calls, as "pkgpath.Func" or
	// "pkgpath.Type.Method" keys; "pkgpath.*" and "pkgpath.Type.*"
	// wildcards are allowed. Channel sends are always flagged.
	IO []string
}

// DefaultLocks are the repository's hot locks: every one of them sits on a
// path that readers, health probes, or all writers share.
var DefaultLocks = []string{
	"annotadb/internal/wal.SegmentedLog.mu",
	"annotadb/internal/incremental.Engine.mu",
	"annotadb/internal/stream.Broker.mu",
	"annotadb/internal/shard.Router.appendMu",
}

// DefaultIO are the blocking calls the repository's hot paths must not make
// under a hot lock: raw file syscalls, the WAL's append/fsync/trim surface,
// checkpoint serialization, the durable file install, HTTP, and sleeps.
var DefaultIO = []string{
	"os.File.*",
	"net/http.*",
	"time.Sleep",
	"annotadb/internal/wal.SegmentedLog.Append",
	"annotadb/internal/wal.SegmentedLog.Sync",
	"annotadb/internal/wal.SegmentedLog.TrimBelow",
	"annotadb/internal/wal.SegmentedLog.ReadFrom",
	"annotadb/internal/wal.SegmentedLog.Close",
	"annotadb/internal/storage.WriteCheckpointFile",
	"annotadb/internal/storage.ReadCheckpointFile",
	"annotadb/internal/storage.InstallFile",
	"annotadb/internal/storage.SyncDir",
}

// Default returns the analyzer configured for this repository.
func Default() *analysis.Analyzer { return New(Config{Locks: DefaultLocks, IO: DefaultIO}) }

// New builds the analyzer for an explicit configuration (used by tests).
func New(cfg Config) *analysis.Analyzer {
	locks := make(map[string]bool, len(cfg.Locks))
	for _, l := range cfg.Locks {
		locks[l] = true
	}
	io := make(map[string]bool, len(cfg.IO))
	for _, c := range cfg.IO {
		io[c] = true
	}
	return &analysis.Analyzer{
		Name:       "lockio",
		Doc:        "flags blocking I/O and channel sends under hot locks, and Lock() without Unlock() on every return path",
		NeedsTypes: true,
		Run:        func(pass *analysis.Pass) error { return run(pass, locks, io) },
	}
}

func run(pass *analysis.Pass, locks, io map[string]bool) error {
	w := &walker{pass: pass, locks: locks, io: io}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.function(fn.Body)
				}
			case *ast.FuncLit:
				// Analyzed as its own function: its body runs with whatever
				// locks are held at call time, which this intraprocedural
				// check cannot know; what it can check is internal pairing.
				w.function(fn.Body)
			}
			return true
		})
	}
	return nil
}

// heldLock is one hot lock currently held on the path being walked.
type heldLock struct {
	key      string // config key, e.g. "pkg.Router.appendMu"
	expr     string // source text of the lock expression, e.g. "r.appendMu"
	pos      token.Pos
	deferred bool // an Unlock is deferred on this path
}

type walker struct {
	pass  *analysis.Pass
	locks map[string]bool
	io    map[string]bool
}

// function walks one function body with no locks held and reports locks
// still held when it falls off the end.
func (w *walker) function(body *ast.BlockStmt) {
	held, terminated := w.stmts(body.List, map[string]*heldLock{})
	if terminated {
		return
	}
	for _, h := range held {
		if !h.deferred {
			w.pass.Reportf(h.pos, "%s.Lock() is not released on the fall-through return path", h.expr)
		}
	}
}

// stmts walks a statement list, threading the held-lock set through it.
// The returned bool reports that the list always terminates (returns or
// panics) before reaching its end.
func (w *walker) stmts(list []ast.Stmt, held map[string]*heldLock) (map[string]*heldLock, bool) {
	for _, st := range list {
		var term bool
		held, term = w.stmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *walker) stmt(st ast.Stmt, held map[string]*heldLock) (map[string]*heldLock, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, expr, kind := w.lockOp(call); kind != 0 {
				held = clone(held)
				if kind == opLock {
					held[key] = &heldLock{key: key, expr: expr, pos: call.Pos()}
				} else {
					delete(held, key)
				}
				return held, false
			}
		}
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if key, _, kind := w.lockOp(s.Call); kind == opUnlock {
			if h, ok := held[key]; ok {
				held = clone(held)
				held[key] = &heldLock{key: h.key, expr: h.expr, pos: h.pos, deferred: true}
			}
			return held, false
		}
		// The deferred call itself runs at return time; whether a lock is
		// held then depends on defer ordering, which this walk does not
		// model. Its arguments are evaluated now, though.
		for _, a := range s.Call.Args {
			w.checkExpr(a, held)
		}
	case *ast.SendStmt:
		if h := anyHeld(held); h != nil {
			w.pass.Reportf(s.Pos(), "channel send while %s is held; a blocked receiver stalls everyone waiting on the lock", h.expr)
		}
		w.checkExpr(s.Chan, held)
		w.checkExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, held)
		}
		for _, h := range held {
			if !h.deferred {
				w.pass.Reportf(s.Pos(), "return while %s is held without a deferred or preceding Unlock", h.expr)
			}
		}
		return held, true
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.checkExpr(s.Cond, held)
		bodyOut, bodyTerm := w.stmts(s.Body.List, clone(held))
		elseOut, elseTerm := held, false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, clone(held))
		}
		switch {
		case bodyTerm && elseTerm:
			return held, true
		case bodyTerm:
			return elseOut, false
		case elseTerm:
			return bodyOut, false
		default:
			return intersect(bodyOut, elseOut), false
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		w.stmts(s.Body.List, clone(held))
		return held, false
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		w.stmts(s.Body.List, clone(held))
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				for _, e := range c.List {
					w.checkExpr(e, held)
				}
				w.stmts(c.Body, clone(held))
			}
		}
		return held, false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.stmts(c.Body, clone(held))
			}
		}
		return held, false
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				if send, ok := c.Comm.(*ast.SendStmt); ok {
					if h := anyHeld(held); h != nil {
						w.pass.Reportf(send.Pos(), "channel send while %s is held; a blocked receiver stalls everyone waiting on the lock", h.expr)
					}
				}
				w.stmts(c.Body, clone(held))
			}
		}
		return held, false
	case *ast.GoStmt:
		// The spawned goroutine does not run under the spawner's locks; its
		// body is analyzed as an independent function by run.
		return held, false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return held, false
}

// checkExpr flags blocking calls inside an expression evaluated while hot
// locks are held. Function literals are skipped: their bodies run later.
func (w *walker) checkExpr(e ast.Expr, held map[string]*heldLock) {
	h := anyHeld(held)
	if h == nil || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(w.pass.Info, call)
		if fn == nil {
			return true
		}
		if name, ok := analysis.MatchFunc(fn, w.io); ok {
			w.pass.Reportf(call.Pos(), "call to %s while %s is held; blocking I/O under a hot lock stalls everyone waiting on it", name, h.expr)
		}
		return true
	})
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as Lock/RLock or Unlock/RUnlock on a configured
// hot lock, returning the lock's config key and its source expression.
func (w *walker) lockOp(call *ast.CallExpr) (key, expr string, kind lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", "", opNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", "", opNone
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", "", opNone
	}
	fsel, ok := w.pass.Info.Selections[field]
	if !ok {
		return "", "", opNone
	}
	owner := analysis.NamedOf(fsel.Recv())
	if owner == nil {
		return "", "", opNone
	}
	k := analysis.TypeKey(owner) + "." + field.Sel.Name
	if !w.locks[k] {
		return "", "", opNone
	}
	return k, exprString(field), kind
}

// anyHeld returns one currently held lock, or nil.
func anyHeld(held map[string]*heldLock) *heldLock {
	for _, h := range held {
		return h
	}
	return nil
}

func clone(held map[string]*heldLock) map[string]*heldLock {
	out := make(map[string]*heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersect merges two branch outcomes conservatively: a lock is held after
// the branch only if both arms leave it held, and its unlock is deferred
// only if both arms deferred it.
func intersect(a, b map[string]*heldLock) map[string]*heldLock {
	out := make(map[string]*heldLock, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			h := *va
			h.deferred = va.deferred && vb.deferred
			out[k] = &h
		}
	}
	return out
}

// exprString renders an expression back to source text for diagnostics.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
