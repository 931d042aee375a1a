package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/serve"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// Small configurations keep the tests fast; every layer still does work.
var (
	smallEdges  = func() edgesConfig { c := edgesDefaults; c.Vertices, c.PassUpdates = 500, 3000; return c }()
	smallSparse = func() sparseConfig { c := sparseDefaults; c.PassDocs, c.Decay = 4000, 0.85; return c }()
	smallLive   = func() liveConfig {
		c := liveDefaults
		c.PrefixDocs, c.SnapshotEvery, c.Rate = 2500, 1000, 20_000
		return c
	}()
)

func smallOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 7, seconds: 0.2, trace: traced, scratch: t.TempDir(), out: io.Discard}
}

func runSmall(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	o := smallOptions(t, workload, traced)
	var r *result
	var err error
	switch workload {
	case "edges":
		r, err = runEdges(smallEdges, o)
	case "docs-sparse":
		r, err = runSparse(smallSparse, o)
	case "docs-live":
		r, err = runLive(smallLive, o)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// TestWorkloadsEmitEveryMetric pins the output contract: each workload's
// last line carries every end-to-end metric (untraced) or every per-layer
// metric (traced), each with its catalogue unit, and the checks pass.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := runSmall(t, w.Name, traced)
			var sb bytes.Buffer
			r.printReport(&sb)
			if !r.correct() || r.failed > 0 {
				t.Fatalf("%s traced=%v: checks failed:\n%s", w.Name, traced, sb.String())
			}
			line, err := r.contract(traced)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(back.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := back.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, name, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
			if back.Attempted < 1 || !back.Correct || back.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, back.Correct, back.Attempted, back.Failed)
			}
		}
	}
}

// TestLiveRestartMatchesUninterrupted pins docs-live's restart: recovering
// from the last periodic snapshot plus the WAL tail, then ingesting the live
// documents, produces the digest of one uninterrupted run over the same
// documents.
func TestLiveRestartMatchesUninterrupted(t *testing.T) {
	c := smallLive
	o := smallOptions(t, "docs-live", false)
	r, err := runLive(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.layers["persist.replayed_frames"]; got == 0 {
		t.Fatal("the restart re-applied no WAL tail; the test would not cover it")
	}

	// The digest is session 0's.
	liveDocs := int(math.Round(c.Rate * o.seconds / float64(c.Sessions)))
	var buf bytes.Buffer
	if _, err := docsText(&buf, c.docsConfig, c.PrefixDocs+liveDocs, passSeed(o.seed, 0)); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	aggCfg, err := c.aggregator()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := stream.NewAggregator(stream.NewDocReaderSource("docs", bytes.NewReader(text)), aggCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(c.engine())
	if err != nil {
		t.Fatal(err)
	}
	trk, err := story.NewTracker(c.tracker())
	if err != nil {
		t.Fatal(err)
	}
	bld := serve.NewBuilder(trk)
	lg := &liveLog{marks: map[uint64]liveMark{}}
	bld.SetRecordSink(func(rec story.Record) { lg.records = append(lg.records, rec.String()) })
	sk := newSink(bld, layerServe, &probe{})
	if _, err := stream.NewReplay(agg, eng, sk).RunBatches(c.ReadBatch, false); err != nil {
		t.Fatal(err)
	}
	if want := lg.digest(sk, eng.OutputDenseKeys()); r.digest != want {
		t.Fatalf("restarted digest %s != uninterrupted %s", r.digest, want)
	}
	if len(lg.records) == 0 {
		t.Fatal("no story records; the digest compares nothing")
	}
}

// TestDenseCandidatesExact pins the oracle's reduction: enumerating the
// induced candidate subgraph finds exactly what enumerating the whole graph
// finds.
func TestDenseCandidatesExact(t *testing.T) {
	graphs := map[string]*core.Engine{}
	for _, decay := range []float64{0.7, 0.85} {
		c := withDecay(docsBase, decay)
		c.Entities = 60
		var buf bytes.Buffer
		if _, err := docsText(&buf, c, 3000, 3); err != nil {
			t.Fatal(err)
		}
		aggCfg, _ := c.aggregator()
		agg, _ := stream.NewAggregator(stream.NewDocReaderSource("docs", &buf), aggCfg)
		eng, _ := core.New(c.engine())
		if _, err := stream.NewReplay(agg, eng, nil).RunBatches(256, false); err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("docs decay %v", decay)] = eng
	}
	ec := smallEdges
	ec.Vertices, ec.PassUpdates, ec.Nmax = 60, 600, 4
	var buf bytes.Buffer
	if err := edgesText(&buf, ec, 5); err != nil {
		t.Fatal(err)
	}
	eng, _ := core.New(ec.engine())
	if _, err := stream.NewReplay(stream.NewReaderSource("edges", &buf), eng, nil).RunBatches(256, false); err != nil {
		t.Fatal(err)
	}
	graphs["edges"] = eng

	for name, eng := range graphs {
		cfg, g, th := eng.Config(), eng.Graph(), eng.Thresholds().T
		p := brute.Params{Measure: cfg.Measure, T: th, Nmax: cfg.Nmax}
		full := brute.Keys(brute.EnumerateConnected(g, p))
		sub := denseCandidates(g, cfg.Measure, th, cfg.Nmax)
		if got := brute.Keys(brute.EnumerateConnected(sub, p)); !slices.Equal(got, full) {
			t.Errorf("%s: reduced enumeration %v != full %v", name, got, full)
		}
		if len(full) == 0 {
			t.Errorf("%s: no dense subgraphs; the comparison is empty", name)
		}
		if err := oracleCheck(eng); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestIndexCheckReportsDriftAsKnownDefect pins indexCheck on a rescaled
// stream long enough for normalized scores to outgrow ValidateIndex's
// absolute tolerance.
func TestIndexCheckReportsDriftAsKnownDefect(t *testing.T) {
	c := withDecay(docsBase, 0.85)
	var buf bytes.Buffer
	if _, err := docsText(&buf, c, 20_000, 1); err != nil {
		t.Fatal(err)
	}
	aggCfg, _ := c.aggregator()
	agg, _ := stream.NewAggregator(stream.NewDocReaderSource("docs", &buf), aggCfg)
	eng, _ := core.New(c.engine())
	if _, err := stream.NewReplay(agg, eng, nil).RunBatches(256, false); err != nil {
		t.Fatal(err)
	}
	if eng.ValidateIndex() == "" {
		t.Skip("ValidateIndex passes on this stream; nothing to pin")
	}
	err := indexCheck(eng)
	var kd *knownDefect
	if !errors.As(err, &kd) {
		t.Fatalf("indexCheck = %v, want a known defect", err)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	rng := rand.New(rand.NewSource(1))
	var xs []float64
	for i := 0; i < 100_000; i++ {
		d := time.Duration(rng.ExpFloat64() * 50_000)
		h.add(d)
		xs = append(xs, float64(d))
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.99} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantile(q); math.Abs(got-want) > want/histSub {
			t.Errorf("q%v = %v, want %v within 1/%d", q, got, want, histSub)
		}
	}
}

// TestSpecFile pins BENCHMARK.json to the catalogue it is rendered from.
func TestSpecFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with --workload all")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
