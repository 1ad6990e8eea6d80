package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// manifestPath is BENCHMARK.json as seen from the repository root, where
// run.sh starts the program.
const manifestPath = "BENCHMARK.json"

// checkManifest fails when the BENCHMARK.json at path does not say what
// manifest() says. Every run starts with it, so the file at the repository
// root cannot drift from the tables the program measures by without the
// next run saying so.
func checkManifest(path string) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := manifest()
	if err != nil {
		return err
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return err
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("%s differs from the program's own tables (spec.go, ladder.go); rewrite it with `go test -run TestManifest -update` in benchmark/.src", path)
	}
	return nil
}

// manifest renders BENCHMARK.json from the tables this program measures by.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workloadJSON{Name: sp.name, Why: sp.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{Name: d.name, Unit: d.unit, Better: d.better(), Bound: &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{Name: d.name, Unit: d.unit, Better: d.better()})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
