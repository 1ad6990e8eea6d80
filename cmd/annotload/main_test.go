package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesLocalFlagsWithTarget checks that a flag configuring the
// in-process server is an error against a remote target instead of being
// silently ignored. The refusal comes before any request is made.
func TestRunRefusesLocalFlagsWithTarget(t *testing.T) {
	for _, args := range [][]string{
		{"-target", "http://127.0.0.1:1", "-followers", "2"},
		{"-target", "http://127.0.0.1:1", "-read-rate", "100"},
		{"-target", "http://127.0.0.1:1", "-shards", "2", "-dir", t.TempDir()},
		{"-target", "http://127.0.0.1:1", "-seed-tuples", "10", "-queue-depth", "4"},
		{"-target", "http://127.0.0.1:1", "-events=false"},
		{"-target", "http://127.0.0.1:1", "-min-support", "0.1", "-min-confidence", "0.5"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "cannot be used with -target") {
			t.Errorf("run(%q) = %v, want the -local flag refused", args, err)
			continue
		}
		for _, a := range args[2:] {
			if flag := strings.SplitN(a, "=", 2)[0]; strings.HasPrefix(flag, "-") && !strings.Contains(err.Error(), flag) {
				t.Errorf("run(%q) error %q does not name %s", args, err, flag)
			}
		}
	}
}

// TestRunLocalAlone checks that the -local flags still parse and configure
// a run on their own: a short closed-loop run against the in-process server
// writes its JSON report.
func TestRunLocalAlone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{
		"-local", "-corpus", "metrics", "-seed-tuples", "200",
		"-min-support", "0.05", "-min-confidence", "0.5",
		"-duration", "0.3", "-concurrency", "2", "-json", out,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Completed uint64 `json:"completed"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Errorf("report %s shows no completed requests", raw)
	}
}

// TestRunNeedsExactlyOneTarget checks the -target / -local choice.
func TestRunNeedsExactlyOneTarget(t *testing.T) {
	for _, args := range [][]string{nil, {"-local", "-target", "http://127.0.0.1:1"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
