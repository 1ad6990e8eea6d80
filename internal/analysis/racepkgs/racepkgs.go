// Package racepkgs is the race-coverage meta-check: it discovers which
// packages in the repository spawn goroutines (a `go` statement anywhere
// in their sources, tests included) and parses the CI workflow's race-job
// package list, so a test can fail when a concurrent package is missing
// from `go test -race`. PR 3's torn read and PR 6's silent durability loss
// were both bugs the race detector catches — but only in packages it
// actually runs against; this check keeps the list from silently rotting
// as new concurrent packages appear.
package racepkgs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SpawningPackages walks the module rooted at root and returns the
// packages containing at least one go statement, as "." / "./rel" paths
// (the form the CI race line uses). Vendored trees, testdata, dot
// directories, and nested modules (a directory with its own go.mod is
// outside this module's ./... and is raced by its own CI step) are skipped.
func SpawningPackages(root string) ([]string, error) {
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parse %s: %w", path, perr)
		}
		if !spawns(f) {
			return nil
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(path))
		if rerr != nil {
			return rerr
		}
		if rel == "." {
			seen["."] = true
		} else {
			seen["./"+filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// spawns reports whether the file contains a go statement.
func spawns(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// RaceList parses the CI workflow at ciPath and returns the package
// patterns of the canonical race line — the `go test` invocation carrying
// both -race and -shuffle (targeted race runs like the soak step do not
// count as coverage; they filter with -run).
func RaceList(ciPath string) ([]string, error) {
	data, err := os.ReadFile(ciPath)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "go test") ||
			!strings.Contains(line, "-race") ||
			!strings.Contains(line, "-shuffle") {
			continue
		}
		var pkgs []string
		for _, tok := range strings.Fields(line) {
			if tok == "." || strings.HasPrefix(tok, "./") {
				pkgs = append(pkgs, tok)
			}
		}
		if len(pkgs) == 0 {
			return nil, fmt.Errorf("race line in %s names no packages: %q", ciPath, strings.TrimSpace(line))
		}
		return pkgs, nil
	}
	return nil, fmt.Errorf("no `go test -race -shuffle` line found in %s", ciPath)
}
