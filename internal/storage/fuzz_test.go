package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"annotadb/internal/relation"
)

// FuzzParseAnnotations fuzzes the Figure 14 annotation-batch parser
// (ReadUpdateBatch) and, for inputs that parse, the Figure 4 dataset parser
// fed from the same bytes. The parsers guard the HTTP write path
// (POST /annotations with a text/plain body is attacker-reachable), so the
// contract under arbitrary input is: an error or a well-formed result,
// never a panic, and every accepted update line must satisfy the documented
// invariants (zero-based non-negative index, prefix-carrying token).
func FuzzParseAnnotations(f *testing.F) {
	// Seed corpus: the golden fixtures plus handcrafted edge shapes.
	for _, path := range []string{
		"testdata/figure14_input.txt",
		"testdata/figure14_golden.txt",
		"testdata/figure4_input.txt",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add("150:Annot_3\n")
	f.Add("1:Annot_1\n2:Annot_2\n\n# comment\n3:Annot_3")
	f.Add("0:Annot_1")              // 1-based floor violation
	f.Add("-5:Annot_1")             // negative index
	f.Add("9999999999999999:Annot") // overflow-adjacent index
	f.Add(":Annot_1")               // missing index
	f.Add("3:")                     // missing token
	f.Add("3:NotAnAnnotation")      // missing prefix
	f.Add("3:Annot_x:with:colons")  // colons inside the token
	f.Add("  7  :  Annot_9  ")      // whitespace padding
	f.Add("5:Annot_\x00nul")        // control bytes in token
	f.Add(strings.Repeat("1:Annot_1\n", 100))
	f.Add("\xff\xfe not utf8 \x80:Annot_1")

	f.Fuzz(func(t *testing.T, input string) {
		lines, err := ReadUpdateBatch(strings.NewReader(input), Options{})
		if err != nil {
			if lines != nil {
				t.Fatalf("ReadUpdateBatch returned both lines and error %v", err)
			}
		} else {
			for i, u := range lines {
				if u.Index < 0 {
					t.Fatalf("line %d: accepted negative index %d", i, u.Index)
				}
				if u.Token == "" || !strings.HasPrefix(u.Token, DefaultAnnotationPrefix) {
					t.Fatalf("line %d: accepted token %q without prefix", i, u.Token)
				}
				if strings.ContainsAny(u.Token, " \t\n\r") {
					t.Fatalf("line %d: accepted token %q with whitespace", i, u.Token)
				}
			}
			// Accepted batches must round-trip: write + re-read is identity.
			var sb strings.Builder
			if werr := WriteUpdateBatch(&sb, lines); werr != nil {
				t.Fatalf("WriteUpdateBatch on accepted lines: %v", werr)
			}
			again, rerr := ReadUpdateBatch(strings.NewReader(sb.String()), Options{})
			if rerr != nil {
				t.Fatalf("round-trip re-read failed: %v", rerr)
			}
			if len(again) != len(lines) {
				t.Fatalf("round-trip changed line count: %d -> %d", len(lines), len(again))
			}
			for i := range lines {
				if again[i] != lines[i] {
					t.Fatalf("round-trip changed line %d: %+v -> %+v", i, lines[i], again[i])
				}
			}
		}
		// The dataset parser shares the line-handling core; it must be
		// equally panic-free on the same bytes.
		if _, derr := ReadDataset(strings.NewReader(input), Options{}); derr == nil {
			// Parsed datasets are exercised enough by the golden tests; the
			// fuzz target only asserts no panic here.
			_ = derr
		}
	})
}

// FuzzReadCheckpoint fuzzes the checkpoint decoder. A follower decodes a
// checkpoint straight off its primary's HTTP response, so the contract
// under arbitrary input is: an error, never a panic, and every accepted
// input re-encodes as a version 4 checkpoint that decodes to the same head,
// tuples and counters. The seeds are one checkpoint of each readable
// version; a checkpoint's CRC trailer makes most mutations fail early, so
// the fuzzer's reach past it comes from the seeds' CRC-valid shapes.
func FuzzReadCheckpoint(f *testing.F) {
	var v4 bytes.Buffer
	ck := &Checkpoint{
		CheckpointMeta: CheckpointMeta{Epoch: 2, CoveredCursor: 9, ConfigFingerprint: "fp"},
		Relation: relation.FromTokens(
			[][]string{{"28", "85"}, {"28", "41"}, {"62"}},
			[][]string{{"Annot_1"}, nil, {"Annot_1", "Annot_5"}},
		),
		Counters: []int64{1, -2, 3},
	}
	if err := WriteCheckpoint(&v4, ck); err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	for _, path := range []string{
		filepath.Join("testdata", "checkpoint-v3.db"),
		filepath.Join("..", "..", "cmd", "annotserve", "testdata", "upgrade", "single", "checkpoint.db"), // version 2
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAcceptedCheckpoint(t, raw)
		if len(raw) >= 4 {
			// The same bytes with the CRC trailer repaired, so that
			// mutations reach the sections behind it.
			body := raw[: len(raw)-4 : len(raw)-4]
			checkAcceptedCheckpoint(t, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		}
	})
}

// checkAcceptedCheckpoint decodes raw and, if the decoder accepts it,
// checks that it re-encodes as a version 4 checkpoint that decodes to the
// same head, tuples and counters.
func checkAcceptedCheckpoint(t *testing.T, raw []byte) {
	got, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, got); err != nil {
		t.Fatalf("re-encoding an accepted checkpoint: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), checkpointMagic) {
		t.Fatalf("re-encoded magic %q, want %q", buf.Bytes()[:len(checkpointMagic)], checkpointMagic)
	}
	again, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("re-encoded checkpoint does not decode: %v", err)
	}
	if again.CheckpointMeta != got.CheckpointMeta {
		t.Fatalf("head %+v became %+v", got.CheckpointMeta, again.CheckpointMeta)
	}
	if !reflect.DeepEqual(again.Counters, got.Counters) {
		t.Fatalf("counters %v became %v", got.Counters, again.Counters)
	}
	if g, w := tuplesAsTokens(t, again.Relation), tuplesAsTokens(t, got.Relation); !reflect.DeepEqual(g, w) {
		t.Fatalf("tuples %v became %v", w, g)
	}
}
