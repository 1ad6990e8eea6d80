// Package snapshotimmut implements the annotlint analyzer enforcing the
// published-snapshot immutability contract: values of the snapshot types the
// serving layer shares across goroutines without synchronization
// (rules.View, relation.View, relation.Postings, serve.Snapshot,
// stream.Event, predict.Compiled) must never be written through outside the
// package that owns the type. A
// reader holding a published snapshot relies on every field, slice, and map
// reachable from it being frozen; one assignment through a shared view is a
// data race the type system cannot see.
//
// The analyzer flags, outside the owning package: field assignments through
// a snapshot-typed value, element and map writes, ++/--, delete, and
// append/copy whose destination derives from a snapshot (append can write
// into the shared backing array even when its result is stored elsewhere).
// Mutations inside the owning package — construction before publish — are
// the owner's business and are not flagged.
package snapshotimmut

import (
	"go/ast"
	"go/types"

	"annotadb/internal/analysis"
)

// Config lists the protected snapshot types as "pkgpath.TypeName" keys.
type Config struct {
	// Types are the published-snapshot types, e.g.
	// "annotadb/internal/rules.View".
	Types []string
}

// DefaultTypes are the repository's published snapshot types.
var DefaultTypes = []string{
	"annotadb/internal/rules.View",
	"annotadb/internal/relation.View",
	"annotadb/internal/serve.Snapshot",
	"annotadb/internal/stream.Event",
	"annotadb/internal/predict.Compiled",
	// A View hands its bitmaps out by value; the relation shares each one
	// with every later generation until a write copies it.
	"annotadb/internal/relation.Postings",
}

// Default returns the analyzer configured for this repository.
func Default() *analysis.Analyzer { return New(Config{Types: DefaultTypes}) }

// New builds the analyzer for an explicit type list (used by tests).
func New(cfg Config) *analysis.Analyzer {
	set := make(map[string]bool, len(cfg.Types))
	for _, t := range cfg.Types {
		set[t] = true
	}
	return &analysis.Analyzer{
		Name:       "snapshotimmut",
		Doc:        "flags writes through published snapshot types outside their owning package",
		NeedsTypes: true,
		Run:        func(pass *analysis.Pass) error { return run(pass, set) },
	}
}

func run(pass *analysis.Pass, set map[string]bool) error {
	c := &checker{pass: pass, set: set}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					c.checkWrite(lhs, "assignment")
				}
			case *ast.IncDecStmt:
				c.checkWrite(st.X, "increment")
			case *ast.CallExpr:
				c.checkBuiltin(st)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	set  map[string]bool
}

// snapType returns the protected named type of e's (pointer-stripped) type,
// when e is a snapshot owned by a package other than the one under analysis.
func (c *checker) snapType(e ast.Expr) *types.Named {
	n := analysis.NamedOf(c.pass.TypeOf(e))
	if n == nil || !c.set[analysis.TypeKey(n)] {
		return nil
	}
	if n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == c.pass.PkgPath {
		return nil // the owner may mutate during construction
	}
	return n
}

// checkWrite flags a write target that reaches through a snapshot value:
// x.Field = v, x.M[k] = v, *p = v, x.Slice[i]++, and so on.
func (c *checker) checkWrite(e ast.Expr, what string) {
	var inner ast.Expr
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		inner = x.X
	case *ast.IndexExpr:
		inner = x.X
	case *ast.StarExpr:
		inner = x.X
	default:
		return // writing a plain variable replaces a reference; it mutates nothing shared
	}
	if n := c.derives(inner); n != nil {
		c.pass.Reportf(e.Pos(), "%s through published snapshot type %s; snapshots are immutable outside %s",
			what, analysis.TypeKey(n), n.Obj().Pkg().Path())
	}
}

// checkBuiltin flags append/copy/delete whose destination derives from a
// snapshot value.
func (c *checker) checkBuiltin(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if c.pass.Info == nil {
		return
	}
	if _, isBuiltin := c.pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "append", "copy", "delete", "clear":
		if n := c.derives(call.Args[0]); n != nil {
			c.pass.Reportf(call.Pos(), "%s on data shared with published snapshot type %s; snapshots are immutable outside %s",
				id.Name, analysis.TypeKey(n), n.Obj().Pkg().Path())
		}
	}
}

// derives reports the protected snapshot type e reaches through: e itself,
// or any base it selects, indexes, dereferences, slices, or receives from a
// method call on.
func (c *checker) derives(e ast.Expr) *types.Named {
	e = ast.Unparen(e)
	if n := c.snapType(e); n != nil {
		return n
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return c.derives(x.X)
	case *ast.IndexExpr:
		return c.derives(x.X)
	case *ast.StarExpr:
		return c.derives(x.X)
	case *ast.SliceExpr:
		return c.derives(x.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			// A method result (e.g. view.Sorted()) shares the snapshot's
			// backing data; writing into it is writing into the snapshot.
			return c.derives(sel.X)
		}
	}
	return nil
}
