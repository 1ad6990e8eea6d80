package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"testing"

	"annotadb"
	"annotadb/internal/relation"
)

// correlateBody is the decoded /correlate response.
type correlateBody struct {
	Anchor      string                `json:"anchor"`
	AnchorCount int                   `json:"anchor_count"`
	N           int                   `json:"n"`
	K           int                   `json:"k"`
	MinLift     float64               `json:"min_lift"`
	Seq         uint64                `json:"seq"`
	Count       int                   `json:"count"`
	Results     []CorrelateResultJSON `json:"results"`
}

func decodeErrorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return envelope.Error.Code
}

// TestCorrelateEndpoint covers the happy path on the gated fixture: every
// tuple carries the anchor, so the one candidate is perfectly associated —
// confidence 1, lift 1, and a degenerate (zero-margin) chi-square table the
// wire must still serialize as finite JSON.
func TestCorrelateEndpoint(t *testing.T) {
	ts := gatedServer(t, 0)

	resp, err := http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /correlate = %d, want 200", resp.StatusCode)
	}
	var body correlateBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Anchor != "28" || body.AnchorCount != 4 || body.N != 4 {
		t.Fatalf("anchor %q count %d n %d, want 28 / 4 / 4", body.Anchor, body.AnchorCount, body.N)
	}
	if body.K != 10 || body.MinLift != 1 {
		t.Fatalf("defaults k %d min_lift %v, want 10 / 1", body.K, body.MinLift)
	}
	if body.Count != len(body.Results) || body.Results == nil {
		t.Fatalf("count %d vs %d results (nil %v)", body.Count, len(body.Results), body.Results == nil)
	}
	var hit *CorrelateResultJSON
	for i := range body.Results {
		if body.Results[i].Token == "Annot_1" {
			hit = &body.Results[i]
		}
	}
	if hit == nil {
		t.Fatalf("Annot_1 missing from results %+v", body.Results)
	}
	if hit.Count != 4 || hit.Frequency != 4 || hit.Confidence != 1 || hit.Lift != 1 {
		t.Fatalf("Annot_1 = %+v, want count 4 freq 4 confidence 1 lift 1", hit)
	}
	if math.IsInf(hit.ChiSquare, 0) || math.IsNaN(hit.ChiSquare) || hit.ChiSquare < 3.841 {
		t.Fatalf("degenerate chi_square = %v, want finite and beyond the cutoff", hit.ChiSquare)
	}
	if hit.PValue != 0 {
		t.Fatalf("degenerate p_value = %v, want 0", hit.PValue)
	}
}

func TestCorrelateBadRequests(t *testing.T) {
	ts := gatedServer(t, 0)
	for _, q := range []string{
		"",                      // missing anchor
		"anchor=28&k=0",         // k below 1
		"anchor=28&k=ten",       // k not a number
		"anchor=28&min_lift=-1", // negative lift floor
		"anchor=28&min_seq=x",   // malformed barrier
	} {
		resp, err := http.Get(ts.URL + "/correlate?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /correlate?%s = %d, want 400", q, resp.StatusCode)
		}
		if code := decodeErrorCode(t, resp); code != CodeInvalidArgument {
			t.Errorf("GET /correlate?%s error code %q, want %q", q, code, CodeInvalidArgument)
		}
	}
}

func TestCorrelateUnknownAnchor(t *testing.T) {
	ts := gatedServer(t, 0)
	resp, err := http.Get(ts.URL + "/correlate?anchor=never-seen")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown anchor = %d, want 404", resp.StatusCode)
	}
	if code := decodeErrorCode(t, resp); code != CodeNotFound {
		t.Fatalf("unknown anchor error code %q, want %q", code, CodeNotFound)
	}
}

// TestCorrelateSeqBarrierOnPrimary: a min_seq barrier on a primary is an
// accepted no-op — acked writes are always visible there, so even a seq far
// beyond the current one answers immediately (the timeout path only exists
// on followers; annotadb's replica suite covers it).
func TestCorrelateSeqBarrierOnPrimary(t *testing.T) {
	ts := gatedServer(t, 0)
	resp, err := http.Get(ts.URL + "/correlate?anchor=28&min_seq=999999&wait_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary barrier = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/correlate?anchor=28&min_seq=1&wait_ms=-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative wait_ms = %d, want 400", resp.StatusCode)
	}
	if code := decodeErrorCode(t, resp); code != CodeInvalidArgument {
		t.Fatalf("negative wait_ms error code %q, want %q", code, CodeInvalidArgument)
	}
}

// TestReadGateShedsCorrelate: /correlate shares the read-admission gate
// with /recommend and /rules — the second immediate read sheds with 429
// and a fractional Retry-After.
func TestReadGateShedsCorrelate(t *testing.T) {
	ts := gatedServer(t, 5) // burst 1

	resp, err := http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first correlate = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/correlate?anchor=28")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("correlate beyond the cap = %d, want 429", resp.StatusCode)
	}
	hint, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64)
	if err != nil || hint <= 0 || hint > 1 {
		t.Errorf("Retry-After = %q (%v), want fractional seconds in (0, 1]", resp.Header.Get("Retry-After"), err)
	}
	if code := decodeErrorCode(t, resp); code != CodeOverloaded {
		t.Errorf("shed correlate error code %q, want %q", code, CodeOverloaded)
	}
}

// TestStatsCorrelateSection: anchor queries build nothing and count
// nothing, so /stats carries a correlate section only while the
// churn-anomaly detector runs — never for a server that just answered
// queries.
func TestStatsCorrelateSection(t *testing.T) {
	ts := gatedServer(t, 0)

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/correlate?anchor=28")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("correlate %d = %d, want 200", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if section, ok := stats["correlate"]; ok {
		t.Fatalf("/stats has a correlate section %s without a detector", section)
	}
}

// TestCorrelateErrorStatus pins the /correlate failure mapping: a missing
// anchor is the client's 404, and every other failure is the server's 500,
// wrapped or not.
func TestCorrelateErrorStatus(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"unknown anchor", annotadb.ErrUnknownAnchor, http.StatusNotFound, CodeNotFound},
		{"wrapped unknown anchor", fmt.Errorf("shard 1: %w", annotadb.ErrUnknownAnchor), http.StatusNotFound, CodeNotFound},
		{"tuple index out of range", fmt.Errorf("%w: 9 (relation has 4 tuples)", relation.ErrTupleIndex), http.StatusInternalServerError, CodeInternal},
		{"anything else", errors.New("boom"), http.StatusInternalServerError, CodeInternal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := correlateErrorStatus(tc.err)
			if status != tc.wantStatus || code != tc.wantCode {
				t.Fatalf("correlateErrorStatus(%v) = %d %q, want %d %q", tc.err, status, code, tc.wantStatus, tc.wantCode)
			}
		})
	}
}
