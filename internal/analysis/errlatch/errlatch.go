// Package errlatch implements the annotlint analyzer enforcing the error
// discipline around the durability latch: sentinel errors must be matched
// with errors.Is (the WAL wraps its sentinels with context as they cross
// layer boundaries, so ==/!= silently stops matching), error text must not
// be string-matched, and the results of the durability-contract methods —
// Journal.Committed, Journal.Seal, Router.Err — must not be dropped,
// because dropping them is exactly the silent-loss bug class PR 6 fixed.
//
// Three checks:
//
//  1. ==/!= (and switch cases) comparing an error against a sentinel — a
//     package-level error variable named Err* or EOF — instead of errors.Is.
//  2. strings.Contains/HasPrefix/HasSuffix applied to err.Error() text.
//  3. A call to a configured must-use function or method whose result is
//     discarded: a bare expression statement, assignment to blank only, or
//     a go/defer call.
package errlatch

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"annotadb/internal/analysis"
)

// Config parameterizes the must-use list.
type Config struct {
	// MustUse lists functions whose results must be consumed, as
	// "pkgpath.Func" / "pkgpath.Type.Method" keys (wildcards allowed).
	MustUse []string
}

// DefaultMustUse are the repository's durability-contract calls: each one
// returns the only evidence that writes actually reached disk.
var DefaultMustUse = []string{
	"annotadb/internal/serve.Journal.Committed",
	"annotadb/internal/serve.Journal.Seal",
	"annotadb/internal/wal.Store.Committed",
	"annotadb/internal/wal.Store.Seal",
	"annotadb/internal/shard.Router.Err",
}

// Default returns the analyzer configured for this repository.
func Default() *analysis.Analyzer { return New(Config{MustUse: DefaultMustUse}) }

// New builds the analyzer for an explicit configuration (used by tests).
func New(cfg Config) *analysis.Analyzer {
	mustUse := make(map[string]bool, len(cfg.MustUse))
	for _, m := range cfg.MustUse {
		mustUse[m] = true
	}
	return &analysis.Analyzer{
		Name:       "errlatch",
		Doc:        "flags ==/!= and string matching against sentinel errors, and dropped durability-contract results",
		NeedsTypes: true,
		Run:        func(pass *analysis.Pass) error { return run(pass, mustUse) },
	}
}

func run(pass *analysis.Pass, mustUse map[string]bool) error {
	c := &checker{pass: pass, mustUse: mustUse}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				c.checkCompare(x)
			case *ast.SwitchStmt:
				c.checkSwitch(x)
			case *ast.CallExpr:
				c.checkStringMatch(x)
			case *ast.ExprStmt:
				c.checkDropped(x.X, "discarded")
			case *ast.GoStmt:
				c.checkDropped(x.Call, "discarded by go statement")
			case *ast.DeferStmt:
				c.checkDropped(x.Call, "discarded by defer")
			case *ast.AssignStmt:
				c.checkBlankAssign(x)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	mustUse map[string]bool
}

// sentinel reports whether e is a use of a package-level error variable
// following the sentinel naming convention (Err* or EOF), returning its
// name for the diagnostic.
func (c *checker) sentinel(e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := c.pass.ObjectOf(id).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !analysis.IsErrorType(v.Type()) {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") && v.Name() != "EOF" {
		return "", false
	}
	return v.Name(), true
}

// checkCompare flags `err == ErrFoo` and `err != ErrFoo`.
func (c *checker) checkCompare(b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		if name, ok := c.sentinel(pair[0]); ok && analysis.IsErrorType(c.pass.TypeOf(pair[1])) {
			c.pass.Reportf(b.Pos(), "comparing error with %s %s; use errors.Is so wrapped errors still match", b.Op, name)
			return
		}
	}
}

// checkSwitch flags `switch err { case ErrFoo: ... }`.
func (c *checker) checkSwitch(s *ast.SwitchStmt) {
	if s.Tag == nil || !analysis.IsErrorType(c.pass.TypeOf(s.Tag)) {
		return
	}
	for _, cc := range s.Body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			if name, ok := c.sentinel(e); ok {
				c.pass.Reportf(e.Pos(), "switch case matches sentinel %s by identity; use errors.Is so wrapped errors still match", name)
			}
		}
	}
}

// checkStringMatch flags strings.Contains/HasPrefix/HasSuffix over the text
// of an error.
func (c *checker) checkStringMatch(call *ast.CallExpr) {
	fn := analysis.Callee(c.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" {
		return
	}
	switch fn.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if c.isErrorText(arg) {
			c.pass.Reportf(call.Pos(), "matching on error text with strings.%s; compare with errors.Is against a sentinel instead", fn.Name())
			return
		}
	}
}

// isErrorText reports whether e is a call to the Error method of an error.
func (c *checker) isErrorText(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return analysis.IsErrorType(c.pass.TypeOf(sel.X))
}

// checkDropped flags a must-use call whose results are thrown away.
func (c *checker) checkDropped(e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.Callee(c.pass.Info, call)
	if fn == nil {
		return
	}
	if name, ok := analysis.MatchFunc(fn, c.mustUse); ok {
		c.pass.Reportf(call.Pos(), "result of %s %s; this is the durability signal — check it", name, how)
	}
}

// checkBlankAssign flags `_ = mustUseCall()` where every destination is
// blank.
func (c *checker) checkBlankAssign(a *ast.AssignStmt) {
	for _, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			return
		}
	}
	for _, rhs := range a.Rhs {
		c.checkDropped(rhs, "assigned to blank")
	}
}
