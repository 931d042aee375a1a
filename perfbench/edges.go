package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/density"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// edgesConfig is the raw edge-update workload, in the units of the
// `dyndens gen` / `dyndens run` flags.
type edgesConfig struct {
	Vertices    int     `json:"vertices"`
	PassUpdates int     `json:"pass_updates"`
	Skew        float64 `json:"skew"`
	Neg         float64 `json:"neg"`
	Mean        float64 `json:"mean"`
	T           float64 `json:"T"`
	Nmax        int     `json:"nmax"`
	DeltaItFrac float64 `json:"deltait_frac"`
	MaxExplore  bool    `json:"maxexplore"`
	ReadBatch   int     `json:"read_batch"`
}

// Weights accumulate without decay, so per-update cost grows along a stream
// and some seeds grow a dense core that makes the rest of their stream far
// costlier: at 50,000 updates on 4,000 vertices one pass in a hundred costs
// 2–4× the median, at 30,000 none of 200 measured costs more than 2.1×. A
// pass is therefore a short stream from a fresh engine, and a run replays
// many passes with distinct seeds, so one seed's luck moves it little.
var edgesDefaults = edgesConfig{
	Vertices:    4000,
	PassUpdates: 30_000,
	Skew:        0,
	Neg:         0.1,
	Mean:        1,
	T:           3,
	Nmax:        5,
	DeltaItFrac: 0.01,
	MaxExplore:  true,
	ReadBatch:   256,
}

func (c edgesConfig) engine() core.Config {
	return core.Config{Measure: density.AvgWeight, T: c.T, Nmax: c.Nmax, DeltaItFraction: c.DeltaItFrac, EnableMaxExplore: c.MaxExplore}
}

// edgesText appends one pass's stream to buf as edge-list text. The caller
// reuses buf across passes, so generation does not grow the heap.
func edgesText(buf *bytes.Buffer, c edgesConfig, seed int64) error {
	gen, err := stream.NewSynthetic(stream.SynthConfig{
		Vertices: c.Vertices, Updates: c.PassUpdates, Seed: seed,
		Skew: c.Skew, NegativeFraction: c.Neg, MeanDelta: c.Mean,
	})
	if err != nil {
		return err
	}
	chunk := make([]stream.Update, 0, 4096)
	for done := false; !done; {
		u, err := gen.Next()
		switch {
		case errors.Is(err, io.EOF):
			done = true
		case err != nil:
			return err
		default:
			chunk = append(chunk, u)
		}
		if len(chunk) == cap(chunk) || done {
			if _, err := stream.WriteUpdates(buf, chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	return nil
}

func runEdges(c edgesConfig, o options) (*result, error) {
	r := newResult("edges")
	r.config = configMap(o, c)
	p := &probe{tr: o.tracer()}
	var buf bytes.Buffer
	var segItems int
	var segTime time.Duration
	for pass := 0; pass == 0 || r.window < o.duration(); pass++ {
		buf.Reset()
		if err := edgesText(&buf, c, passSeed(o.seed, pass)); err != nil {
			return r, err
		}
		n, elapsed, err := edgesPass(c, buf.Bytes(), pass, r, p)
		if err != nil {
			return r, err
		}
		segItems, segTime = segItems+n, segTime+elapsed
		if (pass+1)%edgesSegmentPasses == 0 {
			p.endSegment(r, segItems, segTime)
			segItems, segTime = 0, 0
		}
	}
	if segItems > 0 {
		p.endSegment(r, segItems, segTime)
	}
	r.absorb(p)
	r.finish(p.tr)
	return r, nil
}

// edgesSegmentPasses is how many passes make one measured segment. Updates
// become visible a read batch at a time, so a pass holds only about 120
// independent latency samples and its p99 is its slowest batch or two; ten
// passes hold about 1,200, so ten or more lie beyond a segment's p99.
const edgesSegmentPasses = 10

// edgesPass replays one generated stream: FileSource parse → Replay →
// engine → counting boundary sink. It returns the updates replayed and the
// time they took.
func edgesPass(c edgesConfig, text []byte, pass int, r *result, p *probe) (int, time.Duration, error) {
	first := pass == 0
	runtime.GC()

	t0 := time.Now()
	eng, err := core.New(c.engine())
	if err != nil {
		return 0, 0, err
	}
	// The counting sink is part of core, so its time stays in core.
	sink := newSink(&core.CountingSink{}, layerCore, &probe{})
	src := &edgeSource{src: stream.NewReaderSource("edges", bytes.NewReader(text)), n: c.ReadBatch, p: p}
	rep := stream.NewReplay(src, eng, sink)
	rep.SetBoundaryHook(func() error {
		now := time.Now()
		p.endCore(now)
		p.complete(now)
		r.mem.poll()
		return nil
	})
	r.setups = append(r.setups, time.Since(t0))

	r.mem.begin()
	start := time.Now()
	st, runErr := rep.RunBatches(c.ReadBatch, false)
	elapsed := time.Since(start)
	r.window += elapsed
	r.mem.end()
	p.tr.reset()
	r.items += st.Updates
	r.updates += uint64(st.Updates)
	r.attempted += st.Updates
	if runErr != nil {
		r.failed++
		return 0, 0, fmt.Errorf("edges pass: %w", runErr)
	}
	if first {
		r.peakRSS = peakRSSMB()
	}
	r.addCheck(fmt.Sprintf("pass %d: ValidateIndex", pass), indexCheck(eng))
	if !first {
		return st.Updates, elapsed, nil
	}

	// Counters and the digest describe the first pass, whose input a seed
	// fixes, so they repeat exactly for a given commit and seed.
	d := newDigester()
	d.line("became=%d ceased=%d boundaries=%d", sink.became, sink.ceased, sink.boundaries)
	for _, k := range eng.OutputDenseKeys() {
		d.line("dense %s", k)
	}
	r.digest = d.sum()
	r.layers["stream.parse.items"] = float64(st.Updates)
	r.layers["stream.parse.bytes"] = float64(len(text))
	fillCoreCounters(r, eng.Stats())
	zeroAggregate(r)
	zeroStory(r)
	zeroServe(r)
	zeroPersist(r)
	return st.Updates, elapsed, nil
}

func fillCoreCounters(r *result, s core.Stats) {
	r.layers["core.updates"] = float64(s.Updates)
	r.layers["core.positive_updates"] = float64(s.PositiveUpdates)
	r.layers["core.negative_updates"] = float64(s.NegativeUpdates)
	r.layers["core.explorations"] = float64(s.Explorations)
	r.layers["core.cheap_explores"] = float64(s.CheapExplores)
	r.layers["core.maxexplore_skips"] = float64(s.MaxExploreSkips)
	skipFrac := 0.0
	if s.PositiveUpdates > 0 {
		skipFrac = float64(s.MaxExploreSkips) / float64(s.PositiveUpdates)
	}
	r.layers["core.maxexplore_skip_frac"] = skipFrac
	r.layers["core.insertions"] = float64(s.Insertions)
	r.layers["core.evictions"] = float64(s.Evictions)
	r.layers["core.star_insertions"] = float64(s.StarInsertions)
	r.layers["core.events"] = float64(s.Events)
	r.layers["core.index_nodes_max"] = float64(s.MaxIndexNodes)
}

// The zero* helpers record the counters of a layer the workload bypasses.

func zeroAggregate(r *result) {
	fillAggregateCounters(r, stream.AggregatorStats{})
}

func zeroStory(r *result) {
	fillStoryCounters(r, story.Stats{})
}

func zeroServe(r *result) {
	for _, name := range []string{"publishes", "boundaries", "publish_frac", "reads", "read_busy_frac"} {
		r.layers["serve."+name] = 0
	}
}

func zeroPersist(r *result) {
	for _, name := range []string{"snapshot_frac", "recover_frac", "frames", "bytes", "snapshots", "snapshot_bytes", "replayed_frames"} {
		r.layers["persist."+name] = 0
	}
}

// passSeed derives the generator seed of pass i from the run's seed
// (splitmix64), so passes are distinct streams and a seed fixes them all.
func passSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
