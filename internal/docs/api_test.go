package docs

import (
	"bytes"
	"flag"
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"annotadb/internal/analysis"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.golden from the current facade")

// TestFacadeAPIGolden pins package annotadb's exported surface: every
// exported identifier and, for struct types — aliased ones included — the
// exported fields with their types and the exported methods. A facade type
// may move to an internal package and come back as an alias without this
// listing noticing; a renamed, retyped, added or dropped field or method
// changes it.
func TestFacadeAPIGolden(t *testing.T) {
	pkgs, err := analysis.Load(filepath.Join("..", ".."), ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Name() != "annotadb" {
		t.Fatalf("loaded %d packages, want the annotadb facade alone", len(pkgs))
	}
	got := describeAPI(pkgs[0].Types)
	if *updateAPI {
		if err := os.WriteFile("api.golden", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the exported API of package annotadb differs from internal/docs/api.golden.\n"+
			"If the change is intended, run `go test ./internal/docs -run TestFacadeAPIGolden -update-api`, "+
			"review the diff of api.golden, and list the change under facade-visible changes in CHANGES.md.\n%s",
			lineDiff(string(want), string(got)))
	}
}

// describeAPI renders the exported declarations of pkg, sorted by name.
// Types declared in other packages and re-exported by an alias are spelled
// by their facade name wherever they appear.
func describeAPI(pkg *types.Package) []byte {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	scope := pkg.Scope()
	var respell []string
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && named.Obj().Pkg() != pkg {
			respell = append(respell, types.TypeString(named, qual), name)
		}
	}
	var b strings.Builder
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s = %s\n", name, types.TypeString(obj.Type(), qual), obj.Val())
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, types.TypeString(obj.Type(), qual))
		case *types.Func:
			fmt.Fprintf(&b, "func %s%s\n", name, strings.TrimPrefix(types.TypeString(obj.Type(), qual), "func"))
		case *types.TypeName:
			typ := types.Unalias(obj.Type())
			st, isStruct := typ.Underlying().(*types.Struct)
			if !isStruct {
				fmt.Fprintf(&b, "type %s %s\n", name, types.TypeString(typ.Underlying(), qual))
			} else {
				fmt.Fprintf(&b, "type %s struct\n", name)
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fmt.Fprintf(&b, "\t%s %s\n", f.Name(), types.TypeString(f.Type(), qual))
					}
				}
			}
			var methods []string
			ms := types.NewMethodSet(types.NewPointer(typ))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					methods = append(methods, fmt.Sprintf("\tfunc (%s) %s%s\n", name, m.Name(),
						strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")))
				}
			}
			sort.Strings(methods)
			b.WriteString(strings.Join(methods, ""))
		}
	}
	return []byte(strings.NewReplacer(respell...).Replace(b.String()))
}

// lineDiff lists the lines only one side has, in order.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 {
			count[l]--
			continue
		}
		fmt.Fprintf(&b, "+ %s\n", l)
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}
