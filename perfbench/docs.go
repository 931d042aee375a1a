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
	"dyndens/internal/vset"
)

// docsConfig is the document workload, in the units of the `dyndens stories`
// flags. The generator fields are spelled out rather than left to defaults.
type docsConfig struct {
	Entities      int     `json:"entities"`
	Stories       int     `json:"stories"`
	StorySize     int     `json:"story_size"`
	StoryFrac     float64 `json:"story_frac"`
	StoryMentions int     `json:"story_mentions"`
	BgMentions    int     `json:"bg_mentions"`
	BgSkew        float64 `json:"bg_skew"`
	Noise         float64 `json:"noise"`
	Lifetime      float64 `json:"lifetime"`

	Epoch     int64   `json:"epoch"`
	Decay     float64 `json:"decay"`
	DecayMode string  `json:"decay_mode"`
	DocWeight float64 `json:"doc_weight"`
	Prune     float64 `json:"prune"`

	T           float64 `json:"T"`
	Nmax        int     `json:"nmax"`
	DeltaItFrac float64 `json:"deltait_frac"`
	MaxExplore  bool    `json:"maxexplore"`

	Jaccard float64 `json:"jaccard"`
	Grace   uint64  `json:"grace"`
	MinCard int     `json:"min_card"`

	ReadBatch int `json:"read_batch"`
}

// docsBase is the ROADMAP baseline document regime (`bench -docs -vertices
// 300 -skew 1.1 -T 12 -nmax 4`) with the `stories run` tracker defaults.
var docsBase = docsConfig{
	Entities: 300, Stories: 3, StorySize: 4, StoryFrac: 0.5, StoryMentions: 3,
	BgMentions: 3, BgSkew: 1.1, Noise: 0.25, Lifetime: 0.6,
	Epoch: 25, Decay: 0.7, DecayMode: "rescale", DocWeight: 1, Prune: 1e-3,
	T: 12, Nmax: 4, DeltaItFrac: 0.01, MaxExplore: true,
	Jaccard: 0.5, Grace: 350, MinCard: 3,
	ReadBatch: 256,
}

// sparseConfig is docs-sparse: the baseline regime, replayed in passes.
type sparseConfig struct {
	docsConfig
	PassDocs int `json:"pass_docs"`
}

// A planted story is dense at decay 0.7 only when its documents bunch up, a
// few times per 30,000 documents, so each story needs a long window for its
// detection check: a pass of 200,000 documents keeps each active for 120,000.
var sparseDefaults = sparseConfig{docsConfig: docsBase, PassDocs: 200_000}

func (c docsConfig) synth(docs int, seed int64) stream.DocSynthConfig {
	return stream.DocSynthConfig{
		BackgroundEntities: c.Entities, Stories: c.Stories, StorySize: c.StorySize,
		Docs: docs, Seed: seed, StoryFraction: c.StoryFrac, StoryMentions: c.StoryMentions,
		BackgroundMentions: c.BgMentions, BackgroundSkew: c.BgSkew,
		NoiseMentionProb: c.Noise, StoryLifetime: c.Lifetime,
	}
}

func (c docsConfig) aggregator() (stream.AggregatorConfig, error) {
	mode, err := stream.ParseDecayMode(c.DecayMode)
	if err != nil {
		return stream.AggregatorConfig{}, err
	}
	return stream.AggregatorConfig{EpochLength: c.Epoch, Decay: c.Decay, DocWeight: c.DocWeight, PruneBelow: c.Prune, DecayMode: mode}, nil
}

func (c docsConfig) engine() core.Config {
	return core.Config{Measure: density.AvgWeight, T: c.T, Nmax: c.Nmax, DeltaItFraction: c.DeltaItFrac, EnableMaxExplore: c.MaxExplore}
}

func (c docsConfig) tracker() story.Config {
	return story.Config{MinJaccard: c.Jaccard, Grace: c.Grace, MinCardinality: c.MinCard}
}

// docsText appends a generated document stream to buf as `time e1 e2 ...`
// text and returns the planted stories. The caller reuses buf across passes.
func docsText(buf *bytes.Buffer, c docsConfig, docs int, seed int64) ([]stream.PlantedStory, error) {
	gen, err := stream.NewDocSynthetic(c.synth(docs, seed))
	if err != nil {
		return nil, err
	}
	batch := make([]stream.Document, 0, 4096)
	for done := false; !done; {
		d, err := gen.Next()
		switch {
		case errors.Is(err, io.EOF):
			done = true
		case err != nil:
			return nil, err
		default:
			batch = append(batch, d)
		}
		if len(batch) == cap(batch) || done {
			if _, err := stream.WriteDocuments(buf, batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
		}
	}
	return gen.PlantedStories(), nil
}

// plantedWatch checks that every planted story is detected: some story
// record reaches Jaccard ≥ minJaccard with the planted entity set while the
// planted story is active.
type plantedWatch struct {
	planted    []stream.PlantedStory
	hit        []bool
	minJaccard float64
}

func newPlantedWatch(planted []stream.PlantedStory, minJaccard float64) *plantedWatch {
	return &plantedWatch{planted: planted, hit: make([]bool, len(planted)), minJaccard: minJaccard}
}

// observe is called for each story record with the index of the document
// being processed when it was produced.
func (w *plantedWatch) observe(rec story.Record, doc int) {
	if rec.Kind == story.Died {
		return
	}
	for i, p := range w.planted {
		if !w.hit[i] && doc >= p.Start && doc <= p.End && jaccard(rec.Entities, p.Entities) >= w.minJaccard {
			w.hit[i] = true
		}
	}
}

func (w *plantedWatch) err() error {
	for i, hit := range w.hit {
		if !hit {
			p := w.planted[i]
			return fmt.Errorf("planted story %v (docs [%d, %d)) never detected", p.Entities, p.Start, p.End)
		}
	}
	return nil
}

func jaccard(a, b vset.Set) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func runSparse(c sparseConfig, o options) (*result, error) {
	r := newResult("docs-sparse")
	r.config = configMap(o, c)
	p := &probe{tr: o.tracer()}
	var buf bytes.Buffer
	for pass := 0; pass == 0 || r.window < o.duration(); pass++ {
		buf.Reset()
		planted, err := docsText(&buf, c.docsConfig, c.PassDocs, passSeed(o.seed, pass))
		if err != nil {
			return r, err
		}
		if err := sparsePass(c, buf.Bytes(), planted, pass == 0, r, p); err != nil {
			return r, err
		}
	}
	r.absorb(p)
	r.finish(p.tr)
	return r, nil
}

// sparsePass replays one generated document stream: DocFileSource parse →
// Aggregator → Replay → engine → story.Tracker.
func sparsePass(c sparseConfig, text []byte, planted []stream.PlantedStory, first bool, r *result, p *probe) error {
	aggCfg, err := c.aggregator()
	if err != nil {
		return err
	}
	runtime.GC()

	// setup_s is a median of microsecond durations, so each pass sets up
	// several pipelines, timing each, and runs the last.
	base := p.docs
	var sp *sparsePipe
	for i := 0; i < sparseSetups; i++ {
		t0 := time.Now()
		if sp, err = newSparsePipe(c, aggCfg, text, planted, first, base, r, p); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	agg, eng, trk, sink, rep, watch, d := sp.agg, sp.eng, sp.trk, sp.sink, sp.rep, sp.watch, sp.d

	r.mem.begin()
	start := time.Now()
	st, runErr := rep.RunBatches(c.ReadBatch, false)
	elapsed := time.Since(start)
	r.window += elapsed
	r.mem.end()
	p.tr.reset()
	r.items += p.docs - base
	r.updates += uint64(st.Updates)
	r.attempted += p.docs - base
	if runErr != nil {
		r.failed++
		return fmt.Errorf("docs-sparse pass: %w", runErr)
	}
	p.endSegment(r, p.docs-base, elapsed)
	if first {
		r.peakRSS = peakRSSMB()
	}
	pass := len(r.segs) - 1
	r.addCheck(fmt.Sprintf("pass %d: ValidateIndex", pass), indexCheck(eng))
	r.addCheck(fmt.Sprintf("pass %d: planted stories detected", pass), watch.err())
	r.addCheck(fmt.Sprintf("pass %d: output-dense keys = brute.EnumerateConnected", pass), oracleCheck(eng))
	if !first {
		return nil
	}
	r.extra = append(r.extra, reportLine{"docs_per_s", float64(p.docs-base) / elapsed.Seconds(), "1/s"})

	d.line("became=%d ceased=%d boundaries=%d", sink.became, sink.ceased, sink.boundaries)
	for _, k := range eng.OutputDenseKeys() {
		d.line("dense %s", k)
	}
	r.digest = d.sum()
	r.layers["stream.parse.items"] = float64(p.docs - base)
	r.layers["stream.parse.bytes"] = float64(len(text))
	fillAggregateCounters(r, agg.Stats())
	fillCoreCounters(r, eng.Stats())
	fillStoryCounters(r, trk.Stats())
	zeroServe(r)
	zeroPersist(r)
	return nil
}

// sparseSetups is how many pipelines each docs-sparse pass sets up.
const sparseSetups = 5

// sparsePipe is one docs-sparse pipeline, ready for its first document.
type sparsePipe struct {
	agg   *stream.Aggregator
	eng   *core.Engine
	trk   *story.Tracker
	sink  *sink
	rep   *stream.Replay
	watch *plantedWatch
	d     *digester // output digest of the first pass, else nil
}

func newSparsePipe(c sparseConfig, aggCfg stream.AggregatorConfig, text []byte, planted []stream.PlantedStory, first bool, base int, r *result, p *probe) (*sparsePipe, error) {
	ds := &docSource{src: stream.NewDocReaderSource("docs", bytes.NewReader(text)), p: p}
	agg, err := stream.NewAggregator(ds, aggCfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(c.engine())
	if err != nil {
		return nil, err
	}
	trk, err := story.NewTracker(c.tracker())
	if err != nil {
		return nil, err
	}
	sp := &sparsePipe{agg: agg, eng: eng, trk: trk, watch: newPlantedWatch(planted, c.Jaccard)}
	if first {
		sp.d = newDigester()
	}
	trk.SetRecordSink(func(rec story.Record) {
		sp.watch.observe(rec, p.docs-1-base)
		if sp.d != nil {
			sp.d.line("%v", rec)
		}
	})
	sp.sink = newSink(trk, layerStory, p)
	sp.rep = stream.NewReplay(&aggSource{agg: agg, p: p}, eng, sp.sink)
	sp.rep.SetBoundaryHook(func() error {
		now := time.Now()
		p.endCore(now)
		if agg.Drained() {
			p.complete(now)
		}
		r.mem.poll()
		return nil
	})
	return sp, nil
}

func fillAggregateCounters(r *result, s stream.AggregatorStats) {
	r.layers["stream.aggregate.pair_updates"] = float64(s.PairUpdates)
	r.layers["stream.aggregate.decay_updates"] = float64(s.DecayUpdates)
	r.layers["stream.aggregate.epochs"] = float64(s.Epochs)
	r.layers["stream.aggregate.retired"] = float64(s.Retired)
	r.layers["stream.aggregate.tracked_pairs"] = float64(s.TrackedPairs)
	r.layers["stream.aggregate.epoch_pair_touches"] = float64(s.EpochPairTouches)
}

func fillStoryCounters(r *result, s story.Stats) {
	r.layers["story.born"] = float64(s.Born)
	r.layers["story.updated"] = float64(s.Updated)
	r.layers["story.merged"] = float64(s.Merged)
	r.layers["story.split"] = float64(s.Split)
	r.layers["story.died"] = float64(s.Died)
	r.layers["story.records"] = float64(s.Born + s.Updated + s.Merged + s.Split + s.Died)
}
