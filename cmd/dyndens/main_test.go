package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dyndens/internal/core"
)

// The golden-file tests pin the CLI surface: a seeded `gen` must produce a
// byte-identical stream file, and `run` over that stream must report the same
// events and counters. Regenerate the goldens after an intentional change
// with:
//
//	go test ./cmd/dyndens -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	fnErr := fn()
	w.Close()
	<-done
	os.Stdout = old
	if fnErr != nil {
		t.Fatal(fnErr)
	}
	return buf.String()
}

var replayLine = regexp.MustCompile(`^(replay|shard-replay|segments)\{.*\}$`)

// Per-shard load lines from stream.ShardReplayStats carry wall-clock busy
// times and are scrubbed; the per-shard counter lines of shardedSummary
// (delivered/applied/events/...) are deterministic and stay pinned.
var shardLoadLine = regexp.MustCompile(`^shard \d+: .*busy=.*$`)

// normalizeRunOutput makes `dyndens run` output comparable across runs: the
// throughput/latency lines carry wall-clock timings and are scrubbed, and the
// per-event lines are sorted (their order within one update depends on map
// iteration order; the event SET per update is deterministic and the
// conformance tests in internal/stream pin it much harder).
func normalizeRunOutput(out string) string {
	var events, rest []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "became-output-dense") || strings.HasPrefix(line, "ceased-output-dense"):
			events = append(events, line)
		case replayLine.MatchString(line):
			rest = append(rest, "<replay-stats-scrubbed>")
		case shardLoadLine.MatchString(line):
			rest = append(rest, "<shard-load-scrubbed>")
		default:
			rest = append(rest, line)
		}
	}
	sort.Strings(events)
	return strings.Join(append(events, rest...), "\n") + "\n"
}

func compareGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s (regenerate with -update if intentional):\n--- want ---\n%s\n--- got ---\n%s", goldenPath, want, got)
	}
}

const genArgsStream = "-vertices 12 -updates 120 -seed 7 -neg 0.3 -mean 1.5"

func genArgs(out string) []string {
	return append(strings.Fields(genArgsStream), "-out", out)
}

// TestGoldenGen pins the seeded generator's recorded-stream format: same
// flags, same bytes.
func TestGoldenGen(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.stream")
	if err := cmdGen(genArgs(out)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "gen_small.stream")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("generated stream differs from %s (regenerate with -update if intentional)", golden)
	}
}

// TestGoldenRun pins `dyndens run` end to end: events, sink counters, and
// engine work summary over the golden stream.
func TestGoldenRun(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "2", "-nmax", "4"})
	})
	compareGolden(t, filepath.Join("testdata", "run_small.golden"), normalizeRunOutput(out))
}

// TestGoldenRunSharded runs the same stream through `run -shards 2`; after
// normalisation (sorted events, scrubbed timings) the output must match its
// own golden, whose event lines and counters agree with the single-engine
// golden by the sharded engine's conformance guarantee.
func TestGoldenRunSharded(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", filepath.Join("testdata", "gen_small.stream"), "-T", "2", "-nmax", "4", "-shards", "2"})
	})
	compareGolden(t, filepath.Join("testdata", "run_small_sharded.golden"), normalizeRunOutput(out))
}

// TestRunShardedEventParity cross-checks the two run paths directly: the
// sorted event lines of -shards 2 must equal the single-engine ones.
func TestRunShardedEventParity(t *testing.T) {
	stream := filepath.Join("testdata", "gen_small.stream")
	eventLines := func(out string) []string {
		var evs []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "became-output-dense") || strings.HasPrefix(line, "ceased-output-dense") {
				evs = append(evs, line)
			}
		}
		sort.Strings(evs)
		return evs
	}
	single := captureStdout(t, func() error {
		return cmdRun([]string{"-input", stream, "-T", "2", "-nmax", "4"})
	})
	sharded := captureStdout(t, func() error {
		return cmdRun([]string{"-input", stream, "-T", "2", "-nmax", "4", "-shards", "2"})
	})
	a, b := eventLines(single), eventLines(sharded)
	if len(a) == 0 {
		t.Fatal("golden stream produced no events; fixture too weak")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("event lines differ between single and sharded run:\n--- single ---\n%s\n--- sharded ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestBenchCommandSmoke exercises `dyndens bench` end to end for the
// single-threaded and sharded paths (the CI smoke matrix runs the same
// commands at full size).
func TestBenchCommandSmoke(t *testing.T) {
	for _, shards := range []string{"0", "1", "4"} {
		out := captureStdout(t, func() error {
			return cmdBench([]string{"-vertices", "50", "-updates", "2000", "-seed", "3", "-shards", shards})
		})
		if !strings.Contains(out, "bench: 50 vertices, 2000 updates") {
			t.Errorf("shards=%s: missing bench header in output:\n%s", shards, out)
		}
		if shards == "4" {
			if !strings.Contains(out, "shard 3:") {
				t.Errorf("shards=4: missing per-shard report in output:\n%s", out)
			}
			if !strings.Contains(out, "shard-replay{shards=4") {
				t.Errorf("shards=4: missing aggregate shard-replay stats in output:\n%s", out)
			}
		}
	}
}

// TestGoldenStoriesGenDocs pins the seeded document generator's recorded
// format: same flags, same bytes.
func TestGoldenStoriesGenDocs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "docs.docs")
	if err := cmdStoriesGenDocs([]string{"-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "docs_small.docs")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("generated document stream differs from %s (regenerate with -update if intentional)", golden)
	}
}

// TestGoldenStoriesRun pins the documents→stories pipeline end to end: the
// lifecycle log, story table, aggregation counters and engine summary over
// the golden document stream. The record lines are fully deterministic
// (sequence-labelled, canonical resolution order), so unlike run's event
// lines they are compared in order. The exact golden pins the paper-literal
// per-pair sweep (its lifecycle log and story table predate the rescaled
// fading mode and must not drift); the rescale golden pins the default mode's
// tick structure (one threshold tick per epoch) and sequence numbering.
func TestGoldenStoriesRun(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs"), "-decay-mode", "exact"})
	})
	compareGolden(t, filepath.Join("testdata", "stories_small.golden"), normalizeRunOutput(out))
}

// TestGoldenStoriesRunRescale pins the same pipeline under the default
// rescaled fading mode.
func TestGoldenStoriesRunRescale(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs")})
	})
	compareGolden(t, filepath.Join("testdata", "stories_small_rescale.golden"), normalizeRunOutput(out))
}

// storyLifecycleLines extracts the deterministic story-pipeline lines: the
// lifecycle log, the aggregation summary, and the story table.
func storyLifecycleLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[seq ") || strings.HasPrefix(line, "aggregate{") ||
			strings.HasPrefix(line, "stories:") || strings.HasPrefix(line, "story ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestStoriesShardedLifecycleParity is the CLI form of the acceptance
// criterion: `stories run` over the same document stream must print the
// identical lifecycle log and final story table single-threaded, at K=1 and
// at K=4.
func TestStoriesShardedLifecycleParity(t *testing.T) {
	input := filepath.Join("testdata", "docs_small.docs")
	run := func(shards string) []string {
		out := captureStdout(t, func() error {
			return cmdStoriesRun([]string{"-input", input, "-shards", shards})
		})
		return storyLifecycleLines(out)
	}
	ref := run("0")
	if len(ref) == 0 {
		t.Fatal("single-threaded stories run produced no lifecycle output")
	}
	born := false
	for _, line := range ref {
		if strings.Contains(line, "born") {
			born = true
		}
	}
	if !born {
		t.Fatal("lifecycle log contains no born record; fixture too weak")
	}
	for _, shards := range []string{"1", "4"} {
		got := run(shards)
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Errorf("lifecycle output differs between single and -shards %s:\n--- single ---\n%s\n--- sharded ---\n%s",
				shards, strings.Join(ref, "\n"), strings.Join(got, "\n"))
		}
	}
}

// TestStoriesRunSynthMatchesFileInput checks that -synth with the golden
// flags reproduces the committed document stream's lifecycle output (the
// file is itself a gen-docs capture of the default configuration).
func TestStoriesRunSynthMatchesFileInput(t *testing.T) {
	fromFile := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", filepath.Join("testdata", "docs_small.docs"), "-quiet"})
	})
	fromSynth := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-synth", "-quiet"})
	})
	a, b := storyLifecycleLines(fromFile), storyLifecycleLines(fromSynth)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("file and -synth disagree:\n--- file ---\n%s\n--- synth ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestStoriesGenDocsGzipRoundTrip checks the .gz write path feeds back into
// the pipeline transparently.
func TestStoriesGenDocsGzipRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "docs.gz")
	if err := cmdStoriesGenDocs([]string{"-docs", "80", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("output is not gzip-framed: % x", data[:2])
	}
	outText := captureStdout(t, func() error {
		return cmdStoriesRun([]string{"-input", out, "-quiet"})
	})
	if !strings.Contains(outText, "aggregate{docs=80") {
		t.Errorf("gzip document stream did not replay: %s", outText)
	}
}

// TestBenchDocsMode smoke-tests the document→story pipeline bench for both
// engine paths.
func TestBenchDocsMode(t *testing.T) {
	for _, shards := range []string{"0", "4"} {
		out := captureStdout(t, func() error {
			return cmdBench([]string{"-docs", "-vertices", "30", "-updates", "600", "-seed", "7",
				"-skew", "1.1", "-T", "6.5", "-nmax", "4", "-shards", shards})
		})
		if !strings.Contains(out, "aggregate{docs=600") {
			t.Errorf("shards=%s: missing aggregation summary:\n%s", shards, out)
		}
		if !strings.Contains(out, "story:  born=") {
			t.Errorf("shards=%s: missing story summary:\n%s", shards, out)
		}
	}
}

// TestBenchDocsRecordsUserUnits pins that a rescale-mode -docs bench reports
// the configuration the user gave: the engine runs on a normalized threshold
// that grows with every epoch tick, and that internal unit must not leak into
// the printed header or the JSON config block.
func TestBenchDocsRecordsUserUnits(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	out := captureStdout(t, func() error {
		return cmdBench([]string{"-docs", "-vertices", "30", "-updates", "600", "-seed", "7",
			"-skew", "1.1", "-T", "6.5", "-nmax", "4", "-json", jsonPath})
	})
	if !strings.Contains(out, " T=6.5 ") {
		t.Errorf("header does not report the user threshold T=6.5:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Config struct {
			T       float64 `json:"t"`
			DeltaIt float64 `json:"delta_it"`
		} `json:"config"`
		DocPipeline struct {
			ThresholdUpdates int `json:"threshold_updates"`
		} `json:"doc_pipeline"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.DocPipeline.ThresholdUpdates == 0 {
		t.Fatal("workload crossed no epoch; the engine threshold never moved and the check is vacuous")
	}
	want := core.Config{T: 6.5, Nmax: 4}.WithDefaults()
	if res.Config.T != want.T || res.Config.DeltaIt != want.DeltaIt {
		t.Errorf("config t=%g delta_it=%g, want the user's t=%g delta_it=%g", res.Config.T, res.Config.DeltaIt, want.T, want.DeltaIt)
	}
}

// TestGenRejectsBadFlags pins gen's validation behaviour.
func TestGenRejectsBadFlags(t *testing.T) {
	if err := cmdGen([]string{"-updates", "0"}); err == nil {
		t.Error("gen -updates 0 succeeded, want error")
	}
	if err := cmdGen([]string{"-vertices", "1", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("gen -vertices 1 succeeded, want error")
	}
}

// TestRunBatchModeMarkers pins `run -batch`: "%%" markers delimit coalesced
// batches, the net event set equals the sequential run's final result set
// transitions, and the replay reports ticks (one per batch).
func TestRunBatchModeMarkers(t *testing.T) {
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "marked.stream")
	data := "1 2 5\n2 3 5\n%%\n1 3 5\n%%\n%%\n1 3 -9\n"
	if err := os.WriteFile(streamPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-input", streamPath, "-T", "2", "-nmax", "4", "-batch"})
	})
	if !strings.Contains(out, "ticks=4") {
		t.Errorf("expected 4 logical ticks in output:\n%s", out)
	}
	// The triangle {1,2,3} becomes output-dense in batch 2 and its collapse
	// in batch 4 drops {1,3}-dependent subgraphs; events must be net per
	// batch, so the single-batch flap-free stream has matching became lines.
	if !strings.Contains(out, "became-output-dense") {
		t.Errorf("no became events in batch run:\n%s", out)
	}
	// The sequential reader skips markers: same 4 updates, one tick each.
	seq := captureStdout(t, func() error {
		return cmdRun([]string{"-input", streamPath, "-T", "2", "-nmax", "4"})
	})
	if !strings.Contains(seq, "updates=4 ticks=4") {
		t.Errorf("sequential run should see 4 updates with 4 ticks (markers skipped):\n%s", seq)
	}
}

// TestStoriesBatchParity: `stories run -batch` (default rescaled fading) must
// recover the same stories as the paper-literal exact sequential replay on the
// golden document stream — the lifecycle logs differ in sequence numbering
// (batch ticks vs updates) but the born-story entity sets must match, single
// and sharded batched runs must be identical, and coalescing must reduce
// ticks below updates. The sequential reference pins -decay-mode exact: a
// rescaled sequential replay has a different tick structure (one threshold
// tick per epoch instead of one tick per faded pair), so the same -grace value
// spans a different number of documents and story expiry timing shifts.
func TestStoriesBatchParity(t *testing.T) {
	input := filepath.Join("testdata", "docs_small.docs")
	run := func(args ...string) string {
		return captureStdout(t, func() error {
			return cmdStoriesRun(append([]string{"-input", input}, args...))
		})
	}
	// Grace is measured in engine ticks; scale it to batch ticks (one per
	// document/epoch burst instead of one per pair update).
	batched := run("-batch", "-grace", "40")
	batchedSharded := run("-batch", "-grace", "40", "-shards", "4")
	if a, b := storyLifecycleLines(batched), storyLifecycleLines(batchedSharded); strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("batched lifecycle differs between single and sharded:\n--- single ---\n%s\n--- sharded ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	entitySets := func(out string) []string {
		var sets []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "story ") {
				if i := strings.Index(line, "entities="); i >= 0 {
					sets = append(sets, line[i:])
				}
			}
		}
		sort.Strings(sets)
		return sets
	}
	sequential := run("-decay-mode", "exact")
	if a, b := entitySets(batched), entitySets(sequential); strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("final story entity sets differ:\nbatched:    %v\nsequential: %v", a, b)
	}
	if !regexp.MustCompile(`replay\{updates=(\d+) ticks=`).MatchString(batched) {
		t.Fatalf("no replay stats in batched output:\n%s", batched)
	}
	m := regexp.MustCompile(`replay\{updates=(\d+) ticks=(\d+)`).FindStringSubmatch(batched)
	if m == nil || m[1] == m[2] {
		t.Errorf("batched run did not coalesce ticks: %v", m)
	}
}

// TestBenchBatchCompare smoke-tests the -batch comparison path and its JSON
// block for the single-threaded and sharded engines.
func TestBenchBatchCompare(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	out := captureStdout(t, func() error {
		return cmdBench([]string{"-docs", "-vertices", "30", "-updates", "600", "-seed", "7",
			"-skew", "1.1", "-T", "6.5", "-nmax", "4", "-batch", "-json", jsonPath})
	})
	if !strings.Contains(out, "speedup: decay-segment") {
		t.Errorf("missing speedup line:\n%s", out)
	}
	if !strings.Contains(out, "sequential: replay{") {
		t.Errorf("missing sequential baseline stats:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"batched": true`, `"batch_compare"`, `"decay_speedup"`, `"ticks"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench JSON missing %s:\n%s", want, data)
		}
	}
	shardOut := captureStdout(t, func() error {
		return cmdBench([]string{"-docs", "-vertices", "30", "-updates", "600", "-seed", "7",
			"-skew", "1.1", "-T", "6.5", "-nmax", "4", "-batch", "-shards", "2"})
	})
	if !strings.Contains(shardOut, "shard-replay{shards=2") || !strings.Contains(shardOut, "batched") {
		t.Errorf("sharded batched bench output malformed:\n%s", shardOut)
	}
}
