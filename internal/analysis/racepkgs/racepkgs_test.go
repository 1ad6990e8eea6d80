package racepkgs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// repoRoot is the module root relative to this package's directory.
var repoRoot = filepath.Join("..", "..", "..")

// ciPath is the CI workflow the race line lives in.
var ciPath = filepath.Join(repoRoot, ".github", "workflows", "ci.yml")

// TestRaceJobCoversGoroutineSpawners fails when a package that spawns
// goroutines is absent from the CI race line: concurrency without race
// coverage is how torn reads ship.
func TestRaceJobCoversGoroutineSpawners(t *testing.T) {
	spawning, err := SpawningPackages(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(spawning) == 0 {
		t.Fatal("found no goroutine-spawning packages; the walker is broken")
	}
	race, err := RaceList(ciPath)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, p := range race {
		covered[p] = true
	}
	for _, p := range spawning {
		if !covered[p] {
			t.Errorf("%s spawns goroutines but is missing from the CI race line (.github/workflows/ci.yml); add it to `go test -race -shuffle=on ...`", p)
		}
	}
}

// TestSpawningPackagesStopsAtNestedModules pins the walker's boundary: a
// directory with its own go.mod is another module, whose packages this
// module's race line can neither name nor run.
func TestSpawningPackagesStopsAtNestedModules(t *testing.T) {
	root := t.TempDir()
	const spawner = "package p\n\nfunc f() { go f() }\n"
	for path, content := range map[string]string{
		"go.mod":             "module outer\n",
		"a/a.go":             spawner,
		"nested/go.mod":      "module outer/nested\n",
		"nested/b.go":        spawner,
		"nested/deeper/c.go": spawner,
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SpawningPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"./a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SpawningPackages = %v, want %v", got, want)
	}
}

// TestRaceListEntriesExist guards the other direction: every pattern on
// the race line must still be a package directory, so renames cannot leave
// the race job silently testing nothing.
func TestRaceListEntriesExist(t *testing.T) {
	race, err := RaceList(ciPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range race {
		dir := filepath.Join(repoRoot, filepath.FromSlash(p))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("race line entry %s is not a directory in the repo", p)
		}
	}
}
