// Command benchgate is the CI benchmark regression gate: it parses two `go
// test -bench` output files (base and head), compares the median ns/op of
// every benchmark present in both, and exits non-zero if any regresses by
// more than the allowed fraction.
//
// benchstat produces the human-readable statistical report in the same CI
// job; benchgate exists because a gate needs a stable exit code, not a
// formatted table. It deliberately parses the raw `go test -bench` line
// format (stable since Go 1.x) rather than benchstat's output.
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-max-regress 0.15]
//	benchgate -snapshot BENCH_PR5.json [-min-decay-speedup 2.0]
//	benchgate -snapshot BENCH_PR6.json [-min-scoped-speedup 1.5]
//	benchgate -snapshot BENCH_PR7.json [-min-read-qps 50000]
//	benchgate -snapshot BENCH_PR8.json [-min-decay-rescale-speedup 5.0]
//	benchgate -snapshot BENCH_PR10.json [-min-wal-ratio 0.7]
//
// The -snapshot form validates a committed `dyndens bench -json`
// perf-trajectory snapshot instead of comparing two live runs, so a
// regenerated snapshot that no longer meets the repo's claims fails CI
// deterministically (no benchmark noise involved). Which gates apply follows
// the snapshot's blocks: a batch_compare block must record at least the
// given epoch-coalescing speedup on the decay-burst segment; a scaling
// block (from `dyndens bench -scale`) must record at least the given
// scoped-vs-mirror speedup at K=4 — the delivery-policy win at equal
// parallelism, the core-count-independent headline of scoped shard routing;
// and a serve block (from `dyndens bench -serve-readers`) must record at
// least the given closed-loop read throughput against the live story view;
// and a decay_mode_compare block (from `dyndens bench -decay-compare`) must
// record at least the given rescale-vs-exact elapsed-time speedup on the
// decay-burst segment — the O(1)-epoch-decay win of normalized weights over
// the paper-literal per-pair fade sweep; and a wal_overhead block (from `dyndens bench -wal-compare`) must record at
// least the given fraction of durability-off throughput retained with the
// document WAL and background snapshotting on (ratio = off wall time / on
// wall time over the identical workload).
// Explicitly passing a gate's flag makes its block mandatory; a snapshot
// carrying no gateable block always fails.
//
// Exit codes: 0 pass, 1 gate failure, 2 usage/IO/parse error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gateError marks a failed gate (exit 1) as opposed to an unreadable or
// malformed input (exit 2).
type gateError struct{ msg string }

func (e gateError) Error() string { return e.msg }

func gateFailf(format string, args ...any) error {
	return gateError{msg: fmt.Sprintf(format, args...)}
}

// benchLine matches e.g.
//
//	BenchmarkProcessMixed-8   2868   450652 ns/op   62 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parse returns benchmark name → observed ns/op samples.
func parse(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseReader(path, f)
}

func parseReader(path string, f io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %v", path, sc.Text(), err)
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

// median is used instead of the mean so one noisy CI sample cannot flip the
// gate in either direction.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gateCompare applies the regression gate to two parsed bench runs, writing
// the per-benchmark report to w.
func gateCompare(base, head map[string][]float64, maxRegress float64, w io.Writer) error {
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := head[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no common benchmarks between base and head")
	}

	failed := false
	for _, name := range names {
		b, h := median(base[name]), median(head[name])
		// A zero base median is measurement garbage (a broken or truncated
		// bench line), not a real 0 ns/op baseline; dividing by it would turn
		// the delta into ±Inf and poison the report, so the pair is reported
		// but not gated.
		if b == 0 {
			fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12.0f ns/op  delta=   n/a  skipped (zero base)\n",
				strings.TrimPrefix(name, "Benchmark"), b, h)
			continue
		}
		delta := (h - b) / b
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-40s base=%12.0f ns/op  head=%12.0f ns/op  delta=%+6.1f%%  %s\n",
			strings.TrimPrefix(name, "Benchmark"), b, h, 100*delta, status)
	}
	if failed {
		return gateFailf("ns/op regressed by more than %.0f%% on at least one benchmark", 100*maxRegress)
	}
	return nil
}

// snapshot is the subset of the `dyndens bench -json` format the gate reads.
type snapshot struct {
	Batched      bool `json:"batched"`
	BatchCompare *struct {
		DecaySpeedup   float64 `json:"decay_speedup"`
		OverallSpeedup float64 `json:"overall_speedup"`
	} `json:"batch_compare"`
	Scaling *struct {
		ScopedK4VsMirrorK4 float64 `json:"scoped_k4_vs_mirror_k4"`
		ScopedK4VsSingle   float64 `json:"scoped_k4_vs_single"`
	} `json:"scaling"`
	Serve *struct {
		Readers int     `json:"readers"`
		ReadQPS float64 `json:"read_qps"`
		P99Ns   int64   `json:"p99_ns"`
	} `json:"serve"`
	DecayModeCompare *struct {
		DecaySegmentSpeedup float64 `json:"decay_segment_speedup"`
		OverallSpeedup      float64 `json:"overall_speedup"`
	} `json:"decay_mode_compare"`
	WALOverhead *struct {
		Ratio     float64 `json:"ratio"`
		Fsync     bool    `json:"fsync"`
		Frames    uint64  `json:"frames"`
		Snapshots uint64  `json:"snapshots"`
	} `json:"wal_overhead"`
}

// snapshotGates carries each snapshot gate's floor and whether its flag was
// set explicitly (making the corresponding block mandatory).
type snapshotGates struct {
	MinDecaySpeedup  float64
	DecaySet         bool
	MinScopedSpeedup float64
	ScopedSet        bool
	MinReadQPS       float64
	ReadQPSSet       bool
	MinRescale       float64
	RescaleSet       bool
	MinWALRatio      float64
	WALSet           bool
}

// gateSnapshot validates a committed bench snapshot, writing the per-gate
// report to w. Each gate applies when its block is present in the snapshot
// or its floor flag was set explicitly (in which case a missing block is
// itself a failure); a snapshot with no gateable block fails — committing an
// ungated snapshot is always a mistake.
func gateSnapshot(path string, data []byte, g snapshotGates, w io.Writer) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	gated := false
	if s.BatchCompare != nil || g.DecaySet {
		if !s.Batched || s.BatchCompare == nil {
			return gateFailf("%s carries no batch_compare block (not a -batch snapshot)", path)
		}
		fmt.Fprintf(w, "%s: decay-segment speedup %.2fx (overall %.2fx), floor %.2fx\n",
			path, s.BatchCompare.DecaySpeedup, s.BatchCompare.OverallSpeedup, g.MinDecaySpeedup)
		if s.BatchCompare.DecaySpeedup < g.MinDecaySpeedup {
			return gateFailf("decay-segment speedup %.2fx below the %.2fx floor",
				s.BatchCompare.DecaySpeedup, g.MinDecaySpeedup)
		}
		gated = true
	}
	if s.Scaling != nil || g.ScopedSet {
		if s.Scaling == nil || s.Scaling.ScopedK4VsMirrorK4 == 0 {
			return gateFailf("%s carries no scaling block with a scoped/mirror K=4 ratio (not a -scale 0,...,4 snapshot)", path)
		}
		fmt.Fprintf(w, "%s: scoped-vs-mirror K=4 speedup %.2fx (vs single %.2fx), floor %.2fx\n",
			path, s.Scaling.ScopedK4VsMirrorK4, s.Scaling.ScopedK4VsSingle, g.MinScopedSpeedup)
		if s.Scaling.ScopedK4VsMirrorK4 < g.MinScopedSpeedup {
			return gateFailf("scoped-vs-mirror K=4 speedup %.2fx below the %.2fx floor",
				s.Scaling.ScopedK4VsMirrorK4, g.MinScopedSpeedup)
		}
		gated = true
	}
	if s.Serve != nil || g.ReadQPSSet {
		if s.Serve == nil {
			return gateFailf("%s carries no serve block (not a -serve-readers snapshot)", path)
		}
		fmt.Fprintf(w, "%s: serve read throughput %.0f reads/s across %d readers (p99 %dns), floor %.0f\n",
			path, s.Serve.ReadQPS, s.Serve.Readers, s.Serve.P99Ns, g.MinReadQPS)
		if s.Serve.ReadQPS < g.MinReadQPS {
			return gateFailf("serve read throughput %.0f reads/s below the %.0f floor",
				s.Serve.ReadQPS, g.MinReadQPS)
		}
		gated = true
	}
	if s.DecayModeCompare != nil || g.RescaleSet {
		if s.DecayModeCompare == nil {
			return gateFailf("%s carries no decay_mode_compare block (not a -decay-compare snapshot)", path)
		}
		fmt.Fprintf(w, "%s: rescale-vs-exact decay-segment speedup %.2fx (overall %.2fx), floor %.2fx\n",
			path, s.DecayModeCompare.DecaySegmentSpeedup, s.DecayModeCompare.OverallSpeedup, g.MinRescale)
		if s.DecayModeCompare.DecaySegmentSpeedup < g.MinRescale {
			return gateFailf("rescale-vs-exact decay-segment speedup %.2fx below the %.2fx floor",
				s.DecayModeCompare.DecaySegmentSpeedup, g.MinRescale)
		}
		gated = true
	}
	if s.WALOverhead != nil || g.WALSet {
		if s.WALOverhead == nil {
			return gateFailf("%s carries no wal_overhead block (not a -wal-compare snapshot)", path)
		}
		fmt.Fprintf(w, "%s: WAL-on retains %.2fx of durability-off throughput (%d frames, %d snapshots, fsync=%v), floor %.2fx\n",
			path, s.WALOverhead.Ratio, s.WALOverhead.Frames, s.WALOverhead.Snapshots, s.WALOverhead.Fsync, g.MinWALRatio)
		if s.WALOverhead.Ratio < g.MinWALRatio {
			return gateFailf("WAL-on throughput ratio %.2fx below the %.2fx floor",
				s.WALOverhead.Ratio, g.MinWALRatio)
		}
		gated = true
	}
	if !gated {
		return gateFailf("%s carries no gateable block (want batch_compare, scaling, serve, decay_mode_compare, or wal_overhead)", path)
	}
	return nil
}

func main() {
	basePath := flag.String("base", "", "bench output of the base revision")
	headPath := flag.String("head", "", "bench output of the head revision")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed ns/op regression as a fraction (0.15 = +15%)")
	snapshotPath := flag.String("snapshot", "", "validate a committed `dyndens bench -json` snapshot instead of comparing two bench runs")
	g := snapshotGates{}
	flag.Float64Var(&g.MinDecaySpeedup, "min-decay-speedup", 2.0, "with -snapshot: minimum required batched-vs-sequential speedup on the decay segment")
	flag.Float64Var(&g.MinScopedSpeedup, "min-scoped-speedup", 1.5, "with -snapshot: minimum required scoped-vs-mirror delivery speedup at K=4 in the scaling block")
	flag.Float64Var(&g.MinReadQPS, "min-read-qps", 50_000, "with -snapshot: minimum required closed-loop read throughput in the serve block")
	flag.Float64Var(&g.MinRescale, "min-decay-rescale-speedup", 5.0, "with -snapshot: minimum required rescale-vs-exact elapsed-time speedup on the decay segment in the decay_mode_compare block")
	flag.Float64Var(&g.MinWALRatio, "min-wal-ratio", 0.7, "with -snapshot: minimum fraction of durability-off throughput the WAL-on pass must retain in the wal_overhead block")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "min-decay-speedup":
			g.DecaySet = true
		case "min-scoped-speedup":
			g.ScopedSet = true
		case "min-read-qps":
			g.ReadQPSSet = true
		case "min-decay-rescale-speedup":
			g.RescaleSet = true
		case "min-wal-ratio":
			g.WALSet = true
		}
	})

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		var ge gateError
		if errors.As(err, &ge) {
			os.Exit(1)
		}
		os.Exit(2)
	}

	if *snapshotPath != "" {
		data, err := os.ReadFile(*snapshotPath)
		if err != nil {
			fail(err)
		}
		if err := gateSnapshot(*snapshotPath, data, g, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if *basePath == "" || *headPath == "" {
		fail(errors.New("-base and -head are required"))
	}
	base, err := parse(*basePath)
	if err != nil {
		fail(err)
	}
	head, err := parse(*headPath)
	if err != nil {
		fail(err)
	}
	if err := gateCompare(base, head, *maxRegress, os.Stdout); err != nil {
		fail(err)
	}
}
