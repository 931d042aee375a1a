package main

import (
	"errors"
	"strings"
	"testing"
)

func isGateFail(err error) bool {
	var ge gateError
	return errors.As(err, &ge)
}

func TestParseReader(t *testing.T) {
	input := `goos: linux
BenchmarkProcessMixed-8   	    2868	    450652 ns/op	      62 B/op	       0 allocs/op
BenchmarkProcessMixed-8   	    3000	    440000 ns/op
BenchmarkOther            	     100	  12345.5 ns/op
some unrelated line
PASS
`
	got, err := parseReader("test", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got["BenchmarkProcessMixed"]) != 2 || got["BenchmarkProcessMixed"][1] != 440000 {
		t.Fatalf("ProcessMixed samples = %v", got["BenchmarkProcessMixed"])
	}
	if len(got["BenchmarkOther"]) != 1 || got["BenchmarkOther"][0] != 12345.5 {
		t.Fatalf("Other samples = %v", got["BenchmarkOther"])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGateCompare(t *testing.T) {
	base := map[string][]float64{"BenchmarkA": {100}, "BenchmarkB": {100}, "BenchmarkOnlyBase": {5}}
	var out strings.Builder

	// Within threshold passes.
	head := map[string][]float64{"BenchmarkA": {110}, "BenchmarkB": {90}}
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}

	// Beyond threshold is a gate failure, not a hard error.
	head = map[string][]float64{"BenchmarkA": {120}}
	err := gateCompare(base, head, 0.15, &out)
	if err == nil || !isGateFail(err) {
		t.Fatalf("regression should gate-fail, got %v", err)
	}

	// Disjoint benchmark sets are a usage error, not a gate failure.
	err = gateCompare(base, map[string][]float64{"BenchmarkZ": {1}}, 0.15, &out)
	if err == nil || isGateFail(err) {
		t.Fatalf("disjoint sets should hard-fail, got %v", err)
	}
}

// TestGateCompareZeroBase pins the division guard: a zero base median (a
// truncated or garbage bench line) must be reported and skipped, never
// divided — before the guard it produced a ±Inf delta.
func TestGateCompareZeroBase(t *testing.T) {
	base := map[string][]float64{"BenchmarkZero": {0}, "BenchmarkA": {100}}
	head := map[string][]float64{"BenchmarkZero": {500}, "BenchmarkA": {100}}
	var out strings.Builder
	if err := gateCompare(base, head, 0.15, &out); err != nil {
		t.Fatalf("zero base should be skipped, got %v", err)
	}
	if !strings.Contains(out.String(), "skipped (zero base)") {
		t.Fatalf("missing skip marker in report:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Inf") || strings.Contains(out.String(), "NaN") {
		t.Fatalf("non-finite delta leaked into report:\n%s", out.String())
	}
}

func TestGateSnapshotSelection(t *testing.T) {
	var out strings.Builder
	cases := []struct {
		name     string
		json     string
		gates    snapshotGates
		wantErr  string // empty = pass
		gateFail bool
	}{
		{
			name:  "batch block passes its floor",
			json:  `{"batched": true, "batch_compare": {"decay_speedup": 3.0, "overall_speedup": 1.4}}`,
			gates: snapshotGates{MinDecaySpeedup: 2.0},
		},
		{
			name:     "batch block below floor",
			json:     `{"batched": true, "batch_compare": {"decay_speedup": 1.5}}`,
			gates:    snapshotGates{MinDecaySpeedup: 2.0},
			wantErr:  "below the 2.00x floor",
			gateFail: true,
		},
		{
			name:     "explicit decay flag with missing block",
			json:     `{"scaling": {"scoped_k4_vs_mirror_k4": 2.0}}`,
			gates:    snapshotGates{MinDecaySpeedup: 2.0, DecaySet: true, MinScopedSpeedup: 1.5},
			wantErr:  "no batch_compare block",
			gateFail: true,
		},
		{
			name:  "scaling block passes",
			json:  `{"scaling": {"scoped_k4_vs_mirror_k4": 2.1, "scoped_k4_vs_single": 0.9}}`,
			gates: snapshotGates{MinScopedSpeedup: 1.5},
		},
		{
			name:  "serve block passes its floor",
			json:  `{"serve": {"readers": 4, "read_qps": 120000, "p99_ns": 900}}`,
			gates: snapshotGates{MinReadQPS: 50_000},
		},
		{
			name:     "serve block below floor",
			json:     `{"serve": {"readers": 4, "read_qps": 12000}}`,
			gates:    snapshotGates{MinReadQPS: 50_000},
			wantErr:  "below the 50000 floor",
			gateFail: true,
		},
		{
			name:     "explicit qps flag with missing serve block",
			json:     `{"batched": true, "batch_compare": {"decay_speedup": 3.0}}`,
			gates:    snapshotGates{MinDecaySpeedup: 2.0, MinReadQPS: 50_000, ReadQPSSet: true},
			wantErr:  "no serve block",
			gateFail: true,
		},
		{
			name:  "decay-mode block passes its floor",
			json:  `{"decay_mode_compare": {"decay_segment_speedup": 12.5, "overall_speedup": 2.1}}`,
			gates: snapshotGates{MinRescale: 5.0},
		},
		{
			name:     "decay-mode block below floor",
			json:     `{"decay_mode_compare": {"decay_segment_speedup": 3.2}}`,
			gates:    snapshotGates{MinRescale: 5.0},
			wantErr:  "rescale-vs-exact decay-segment speedup 3.20x below the 5.00x floor",
			gateFail: true,
		},
		{
			name:     "explicit rescale flag with missing block",
			json:     `{"serve": {"readers": 4, "read_qps": 120000}}`,
			gates:    snapshotGates{MinReadQPS: 50_000, MinRescale: 5.0, RescaleSet: true},
			wantErr:  "no decay_mode_compare block",
			gateFail: true,
		},
		{
			name:  "wal block passes its floor",
			json:  `{"wal_overhead": {"ratio": 0.93, "frames": 20000, "snapshots": 4}}`,
			gates: snapshotGates{MinWALRatio: 0.7},
		},
		{
			name:     "wal block below floor",
			json:     `{"wal_overhead": {"ratio": 0.41, "frames": 20000}}`,
			gates:    snapshotGates{MinWALRatio: 0.7},
			wantErr:  "WAL-on throughput ratio 0.41x below the 0.70x floor",
			gateFail: true,
		},
		{
			name:     "explicit wal flag with missing block",
			json:     `{"serve": {"readers": 4, "read_qps": 120000}}`,
			gates:    snapshotGates{MinReadQPS: 50_000, MinWALRatio: 0.7, WALSet: true},
			wantErr:  "no wal_overhead block",
			gateFail: true,
		},
		{
			name:     "no gateable block",
			json:     `{"updates_per_second": 12345}`,
			gates:    snapshotGates{},
			wantErr:  "no gateable block",
			gateFail: true,
		},
		{
			name:    "malformed JSON is a hard error",
			json:    `{"batched": tru`,
			gates:   snapshotGates{},
			wantErr: "invalid character",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := gateSnapshot("snap.json", []byte(c.json), c.gates, &out)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
			if isGateFail(err) != c.gateFail {
				t.Fatalf("gateFail = %v, want %v (err %v)", isGateFail(err), c.gateFail, err)
			}
		})
	}
}

// TestGateSnapshotMultipleBlocks checks every present block is gated: a
// snapshot passing one gate but failing another fails overall.
func TestGateSnapshotMultipleBlocks(t *testing.T) {
	var out strings.Builder
	j := `{"batched": true,
	      "batch_compare": {"decay_speedup": 5.0},
	      "serve": {"readers": 2, "read_qps": 100}}`
	err := gateSnapshot("snap.json", []byte(j), snapshotGates{MinDecaySpeedup: 2.0, MinReadQPS: 50_000}, &out)
	if err == nil || !isGateFail(err) || !strings.Contains(err.Error(), "read throughput") {
		t.Fatalf("serve floor should fail the combined snapshot, got %v", err)
	}
}
