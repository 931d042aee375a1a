package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/serve"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// liveConfig is docs-live: the dense regime served the way `dyndens serve
// -wal DIR` serves it, restarted from a crash and then fed at a fixed rate.
type liveConfig struct {
	docsConfig
	PrefixDocs    int     `json:"prefix_docs"`    // documents the untimed run before the restart ingests
	SnapshotEvery uint64  `json:"snapshot_every"` // documents between periodic snapshots
	Rate          float64 `json:"rate"`           // live documents per second
	Restarts      int     `json:"restarts"`       // timed restarts per session; setup_s is their median
	Sessions      int     `json:"sessions"`       // independent streams per run, each with its crash and restart
	TopK          int     `json:"top_k"`          // k of the reader's /stories/top?k= calls
}

// liveSegments is the number of measured windows per run, split evenly over
// the sessions: about 1,000 documents each at the default rate and run
// length. The end-to-end latencies are medians over windows, so a rare
// multi-millisecond stall of the machine moves them little.
const liveSegments = 200

// The prefix ends 1,800 documents past its periodic snapshot, so every
// restart loads a snapshot and re-applies a WAL tail.
//
// A snapshot capture stalls the writer for about a millisecond, delaying the
// documents due meanwhile. At one snapshot per 10,000 documents about 0.1% of
// documents wait on one, so p99 lies clearly outside that population, among
// explorations, epoch units and publishing; the capture stalls show in the
// pooled p99.9 and in behind_max_ms. At one snapshot per 500 or 2,000
// documents they delayed close to 1% of the documents, and p99 jumped
// between seeds with the stalls' count and length.
//
// The rate is about a quarter of the closed-loop capacity on a 2-core
// machine. At half of it the writer was busy most of the time, and its queue
// magnified every drift in machine speed into the p99 latency.
var liveDefaults = liveConfig{
	docsConfig:    withDecay(docsBase, 0.85),
	PrefixDocs:    11_800,
	SnapshotEvery: 10_000,
	Rate:          7000,
	Restarts:      3,
	Sessions:      10,
	TopK:          10,
}

func withDecay(c docsConfig, decay float64) docsConfig {
	c.Decay = decay
	return c
}

// liveLog is docs-live's output log for the digest: the story records and
// event counts of the whole document stream, across the crash. marks holds
// the log position at each snapshot, so a restart can drop what it is about
// to re-apply from the WAL tail.
type liveLog struct {
	records        []string
	became, ceased uint64 // events counted by earlier pipelines' sinks
	marks          map[uint64]liveMark
}

type liveMark struct {
	records        int
	became, ceased uint64
}

func (l *liveLog) mark(seq uint64, s *sink) {
	l.marks[seq] = liveMark{len(l.records), l.became + s.became, l.ceased + s.ceased}
}

func (l *liveLog) rewind(seq uint64) error {
	m, ok := l.marks[seq]
	if !ok && seq != 0 {
		return fmt.Errorf("no output mark for snapshot at document %d", seq)
	}
	l.records = l.records[:m.records]
	l.became, l.ceased = m.became, m.ceased
	return nil
}

func (l *liveLog) digest(s *sink, keys []string) string {
	d := newDigester()
	for _, rec := range l.records {
		d.line("%s", rec)
	}
	d.line("became=%d ceased=%d", l.became+s.became, l.ceased+s.ceased)
	for _, k := range keys {
		d.line("dense %s", k)
	}
	return d.sum()
}

// errStop ends the re-application of the WAL tail at a restart.
var errStop = errors.New("perfbench: WAL tail re-applied")

// livePipe is one restarted docs-live pipeline.
type livePipe struct {
	st       *persist.Store
	agg      *stream.Aggregator
	eng      *core.Engine
	trk      *story.Tracker
	bld      *serve.Builder
	srv      *serve.Server
	rep      *stream.Replay
	sink     *sink
	baseTick uint64

	setup    time.Duration // Open through the re-applied WAL tail
	recover  time.Duration // Open and the Restore* calls
	replayed int           // WAL frames re-applied
}

func (c liveConfig) fingerprint() string {
	b, _ := json.Marshal(c) // plain fields always encode
	return "perfbench:docs-live:" + string(b)
}

func runLive(c liveConfig, o options) (*result, error) {
	r := newResult("docs-live")
	r.config = configMap(o, c)
	aggCfg, err := c.aggregator()
	if err != nil {
		return nil, err
	}
	tot := &liveTotals{tr: o.tracer()}
	sessionDocs := int(math.Round(c.Rate * o.seconds / float64(c.Sessions)))
	for i := 0; i < c.Sessions; i++ {
		if err := liveSession(c, aggCfg, o, i, sessionDocs, r, tot); err != nil {
			return r, fmt.Errorf("session %d: %w", i, err)
		}
	}
	w := r.window.Seconds()
	r.layers["serve.reads"] = float64(tot.reads.n)
	r.layers["serve.read_busy_frac"] = tot.reads.sum.Seconds() / w
	r.layers["persist.snapshot_frac"] = tot.snapTime.Seconds() / w
	r.extra = append(r.extra,
		reportLine{"docs_per_s", r.itemsPerSecond(), "1/s"},
		reportLine{"behind_max_ms", float64(tot.behindMax) / 1e6, "ms"},
		reportLine{"read_qps", float64(tot.reads.n) / w, "1/s"},
		reportLine{"read_p50_us", tot.reads.us(0.50), "us"},
		reportLine{"read_p99_us", tot.reads.us(0.99), "us"},
		reportLine{"read_samples", float64(tot.reads.n), "count"},
		reportLine{"persist.snapshot_s", tot.snapTime.Seconds(), "s"},
	)
	r.finish(tot.tr)
	return r, nil
}

// liveTotals accumulates what docs-live measures across its sessions.
type liveTotals struct {
	tr        *tracer // shared by the sessions' live phases
	reads     hist    // reader call latency
	behindMax time.Duration
	snapTime  time.Duration // background snapshot writes
}

// liveSession runs one independent stream: the untimed prefix and crash, the
// timed restarts, and the live phase. Counters, the digest and peak memory
// come from session 0, whose input the seed fixes.
func liveSession(c liveConfig, aggCfg stream.AggregatorConfig, o options, session, liveDocs int, r *result, tot *liveTotals) error {
	first := session == 0
	var buf bytes.Buffer
	planted, err := docsText(&buf, c.docsConfig, c.PrefixDocs+liveDocs, passSeed(o.seed, session))
	if err != nil {
		return err
	}
	text := buf.Bytes()
	cut := lineOffset(text, c.PrefixDocs)
	prefix, live := text[:cut], text[cut:]

	dir := filepath.Join(o.scratchDir(), fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	watch := newPlantedWatch(planted, c.Jaccard)
	lg := &liveLog{marks: make(map[uint64]liveMark)}
	if err := livePrefix(c, aggCfg, dir, prefix, watch, lg); err != nil {
		return fmt.Errorf("prefix run: %w", err)
	}

	p := &probe{}
	var lp *livePipe
	for i := 0; i < c.Restarts; i++ {
		if lp != nil {
			if err := lp.st.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		if lp, err = restart(c, aggCfg, dir, live, p, watch, lg); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		r.setups = append(r.setups, lp.setup)
	}
	if err := liveRun(c, lp, liveDocs, first, r, p, tot); err != nil {
		return err
	}

	name := func(check string) string { return fmt.Sprintf("session %d: %s", session, check) }
	r.addCheck(name("ValidateIndex"), indexCheck(lp.eng))
	r.addCheck(name("output-dense keys = brute.EnumerateConnected"), oracleCheck(lp.eng))
	r.addCheck(name("serve view = tracker.Stories()"), viewMatchesTracker(lp.bld.View().Snapshot(), lp.trk.Stories()))
	r.addCheck(name("planted stories detected"), watch.err())
	r.absorb(p)
	if !first {
		return nil
	}
	r.digest = lg.digest(lp.sink, lp.eng.OutputDenseKeys())
	r.layers["stream.parse.items"] = float64(liveDocs)
	r.layers["stream.parse.bytes"] = float64(len(live))
	r.layers["persist.replayed_frames"] = float64(lp.replayed)
	r.layers["persist.recover_frac"] = lp.recover.Seconds() / lp.setup.Seconds()
	r.layers["persist.snapshot_bytes"] = float64(newestSnapshotSize(dir))
	r.extra = append(r.extra, reportLine{"persist.recover_s", lp.recover.Seconds(), "s"})
	return nil
}

// lineOffset returns the byte offset just past the first n lines of text.
func lineOffset(text []byte, n int) int {
	off := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(text[off:], '\n')
		if j < 0 {
			return len(text)
		}
		off += j + 1
	}
	return off
}

// livePrefix is the untimed run the restart recovers from: the prefix
// documents go through the logged pipeline with periodic snapshots, and the
// store is closed without a final checkpoint — a crash after the last WAL
// flush.
func livePrefix(c liveConfig, aggCfg stream.AggregatorConfig, dir string, text []byte, watch *plantedWatch, lg *liveLog) error {
	st, err := persist.Open(persist.Config{Dir: dir, Fingerprint: c.fingerprint(), SnapshotEvery: c.SnapshotEvery})
	if err != nil {
		return err
	}
	p := &probe{}
	docs := st.Docs(&docSource{src: stream.NewDocReaderSource("prefix", bytes.NewReader(text)), p: p})
	agg, err := persist.RestoreAggregator(docs, aggCfg, nil)
	if err != nil {
		st.Close()
		return err
	}
	eng, err := persist.RestoreEngine(c.engine(), nil)
	if err != nil {
		st.Close()
		return err
	}
	trk, err := persist.RestoreTracker(c.tracker(), nil)
	if err != nil {
		st.Close()
		return err
	}
	bld := serve.NewBuilder(trk)
	bld.SetRecordSink(func(rec story.Record) {
		lg.records = append(lg.records, rec.String())
		watch.observe(rec, p.docs-1)
	})
	sk := newSink(bld, layerServe, p)
	rep := stream.NewReplay(&aggSource{agg: agg, p: p}, eng, sk)
	capture := func() (*persist.PipelineState, error) {
		bld.Sync()
		ps, err := persist.CaptureSingle(eng, agg, trk)
		if err != nil {
			return nil, err
		}
		ps.Ticks = uint64(rep.Stats().Ticks)
		lg.mark(st.Seq(), sk)
		return ps, nil
	}
	rep.SetBoundaryHook(func() error {
		if agg.Drained() {
			return st.MaybeSnapshot(capture)
		}
		return nil
	})
	if _, err := rep.RunBatches(c.ReadBatch, false); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// restart recovers the pipeline from dir — persist.Open, the Restore*
// calls, serve.NewBuilderFromState — and re-applies the WAL tail. The
// returned pipeline is ready for the first live document; its live input
// continues where the crashed run stopped (persist.Config.LiveTail).
func restart(c liveConfig, aggCfg stream.AggregatorConfig, dir string, live []byte, p *probe, watch *plantedWatch, lg *liveLog) (*livePipe, error) {
	t0 := time.Now()
	st, err := persist.Open(persist.Config{Dir: dir, Fingerprint: c.fingerprint(), SnapshotEvery: c.SnapshotEvery, LiveTail: true})
	if err != nil {
		return nil, err
	}
	lp := &livePipe{st: st}
	restored := st.Restored()
	ls := &logSource{src: st.Docs(&docSource{src: stream.NewDocReaderSource("live", bytes.NewReader(live)), p: p}), p: p}
	fail := func(err error) (*livePipe, error) {
		st.Close()
		return nil, err
	}
	if lp.agg, err = persist.RestoreAggregator(ls, aggCfg, restored); err != nil {
		return fail(err)
	}
	if lp.trk, err = persist.RestoreTracker(c.tracker(), restored); err != nil {
		return fail(err)
	}
	if lp.eng, err = persist.RestoreEngine(c.engine(), restored); err != nil {
		return fail(err)
	}
	var snapSeq uint64
	if restored != nil && restored.Tracker != nil {
		densities := make(map[string]float64)
		for _, sg := range lp.eng.OutputDense() {
			densities[sg.Set.Key()] = sg.Density
		}
		lp.bld = serve.NewBuilderFromState(lp.trk, *restored.Tracker, densities)
		snapSeq = restored.Seq
	} else {
		lp.bld = serve.NewBuilder(lp.trk)
	}
	lp.baseTick = st.BaseTicks()
	lp.recover = time.Since(t0)

	if err := lg.rewind(snapSeq); err != nil {
		return fail(err)
	}
	lp.bld.SetRecordSink(func(rec story.Record) {
		lg.records = append(lg.records, rec.String())
		watch.observe(rec, int(snapSeq)+ls.handed-1)
	})
	lp.sink = newSink(lp.bld, layerServe, p)
	lp.rep = stream.NewReplay(&aggSource{agg: lp.agg, p: p}, lp.eng, lp.sink)
	lp.replayed = int(st.Stats().ReplayedFrames)
	lp.rep.SetBoundaryHook(func() error {
		if ls.handed >= lp.replayed && lp.agg.Drained() {
			return errStop
		}
		return nil
	})
	if lp.replayed > 0 {
		if _, err := lp.rep.RunBatches(c.ReadBatch, false); !errors.Is(err, errStop) {
			return fail(fmt.Errorf("re-applying the WAL tail ended early: %v", err))
		}
	}
	lp.srv = serve.NewServer(lp.bld.View(), nil)
	lp.setup = time.Since(t0)
	return lp, nil
}

// liveRun feeds the live documents on the open-loop schedule while one
// reader goroutine queries the server, and measures until the last document
// is visible.
func liveRun(c liveConfig, lp *livePipe, liveDocs int, first bool, r *result, p *probe, tot *liveTotals) error {
	p.tr = tot.tr
	defer func() { p.tr = nil }()
	p.docs = 0
	sched := &schedule{interval: time.Duration(float64(time.Second) / c.Rate)}
	p.sched = sched
	aggBefore, engBefore, viewBefore := lp.agg.Stats(), lp.eng.Stats(), lp.bld.View().Stats()
	storyBefore := lp.trk.Stats()

	// The live phase is measured in segments of equal document counts.
	segments := liveSegments / c.Sessions
	seg, segStart, segDocs := 1, time.Time{}, 0
	var (
		captureStart time.Time
		snapWaiting  bool
		snapsBefore  uint64
		snapTime     time.Duration
		lastVisible  time.Time
	)
	capture := func() (*persist.PipelineState, error) {
		lp.bld.Sync()
		ps, err := persist.CaptureSingle(lp.eng, lp.agg, lp.trk)
		if err != nil {
			return nil, err
		}
		ps.Ticks = lp.baseTick + uint64(lp.rep.Stats().Ticks)
		captureStart, snapWaiting, snapsBefore = time.Now(), true, lp.st.Stats().SnapshotsCut
		return ps, nil
	}
	lp.rep.SetBoundaryHook(func() error {
		now := time.Now()
		p.endCore(now)
		if !lp.agg.Drained() {
			return nil
		}
		p.complete(now)
		lastVisible = now
		if p.docs >= liveDocs*seg/segments {
			p.endSegment(r, p.docs-segDocs, now.Sub(segStart))
			seg, segStart, segDocs = seg+1, now, p.docs
		}
		if snapWaiting && lp.st.Stats().SnapshotsCut > snapsBefore {
			snapTime += now.Sub(captureStart)
			snapWaiting = false
		}
		r.mem.poll()
		p.tr.begin(layerCapture, now)
		err := lp.st.MaybeSnapshot(capture)
		if p.tr != nil {
			p.tr.end(time.Now())
		}
		if err != nil {
			return err
		}
		if p.docs < liveDocs {
			waitUntil(sched.due(p.docs))
		}
		return nil
	})

	rd := newReader(lp.srv.Handler(), c.TopK)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	runtime.GC()
	r.mem.begin()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(stop)
	}()
	sched.start = time.Now()
	segStart = sched.start
	st, err := lp.rep.RunBatches(c.ReadBatch, false)
	close(stop)
	wg.Wait()
	if first {
		r.peakRSS = peakRSSMB()
	}
	r.mem.end()
	p.tr.reset()
	// Close waits for a background snapshot still being written.
	if cerr := lp.st.Close(); err == nil {
		err = cerr
	}
	if snapWaiting {
		snapTime += time.Since(captureStart)
	}

	r.window += lastVisible.Sub(sched.start)
	r.items += p.docs
	r.updates += uint64(st.Updates)
	r.attempted += p.docs + int(rd.lat.n)
	r.failed += rd.failures
	tot.reads.merge(&rd.lat)
	tot.snapTime += snapTime
	tot.behindMax = max(tot.behindMax, p.behindMax)
	if err != nil {
		r.failed++
		return err
	}
	if p.docs != liveDocs {
		return fmt.Errorf("ingested %d of %d live documents", p.docs, liveDocs)
	}
	if rd.failures > 0 {
		r.addCheck("reader responses", fmt.Errorf("%d failed reads, first: %s", rd.failures, rd.firstErr))
	}
	if !first {
		return nil
	}
	fillAggregateCounters(r, deltaAgg(lp.agg.Stats(), aggBefore))
	fillCoreCounters(r, deltaCore(lp.eng.Stats(), engBefore))
	s := lp.trk.Stats()
	fillStoryCounters(r, story.Stats{Born: s.Born - storyBefore.Born, Updated: s.Updated - storyBefore.Updated,
		Merged: s.Merged - storyBefore.Merged, Split: s.Split - storyBefore.Split, Died: s.Died - storyBefore.Died})
	vs := lp.bld.View().Stats()
	pubs, bounds := vs.Publishes-viewBefore.Publishes, vs.Boundaries-viewBefore.Boundaries
	r.layers["serve.publishes"] = float64(pubs)
	r.layers["serve.boundaries"] = float64(bounds)
	r.layers["serve.publish_frac"] = 0
	if bounds > 0 {
		r.layers["serve.publish_frac"] = float64(pubs) / float64(bounds)
	}
	ws := lp.st.Stats()
	r.layers["persist.frames"] = float64(ws.FramesLogged)
	r.layers["persist.bytes"] = float64(ws.BytesLogged)
	r.layers["persist.snapshots"] = float64(ws.SnapshotsCut)
	return nil
}

func deltaAgg(a, b stream.AggregatorStats) stream.AggregatorStats {
	return stream.AggregatorStats{
		PairUpdates: a.PairUpdates - b.PairUpdates, DecayUpdates: a.DecayUpdates - b.DecayUpdates,
		Epochs: a.Epochs - b.Epochs, Retired: a.Retired - b.Retired, TrackedPairs: a.TrackedPairs,
		EpochPairTouches: a.EpochPairTouches - b.EpochPairTouches,
	}
}

func deltaCore(a, b core.Stats) core.Stats {
	return core.Stats{
		Updates: a.Updates - b.Updates, PositiveUpdates: a.PositiveUpdates - b.PositiveUpdates,
		NegativeUpdates: a.NegativeUpdates - b.NegativeUpdates, Explorations: a.Explorations - b.Explorations,
		CheapExplores: a.CheapExplores - b.CheapExplores, MaxExploreSkips: a.MaxExploreSkips - b.MaxExploreSkips,
		Insertions: a.Insertions - b.Insertions, Evictions: a.Evictions - b.Evictions,
		StarInsertions: a.StarInsertions - b.StarInsertions, Events: a.Events - b.Events,
		MaxIndexNodes: a.MaxIndexNodes,
	}
}

// viewMatchesTracker checks the published serving table row for row against
// the tracker's story table.
func viewMatchesTracker(snap *serve.Snapshot, rows []story.Snapshot) error {
	if len(snap.Stories) != len(rows) {
		return fmt.Errorf("view has %d stories, tracker %d", len(snap.Stories), len(rows))
	}
	for _, row := range rows {
		e, ok := snap.Stories[row.ID]
		switch {
		case !ok:
			return fmt.Errorf("story %d missing from the view", row.ID)
		case e.Entities.Key() != row.Entities.Key(), e.BornSeq != row.BornSeq, e.LastSeq != row.LastSeq,
			e.Fading != row.Fading, len(e.Subgraphs) != row.Subgraphs:
			return fmt.Errorf("story %d: view {entities %v born %d last %d fading %v subgraphs %d} != tracker {%v %d %d %v %d}",
				row.ID, e.Entities, e.BornSeq, e.LastSeq, e.Fading, len(e.Subgraphs),
				row.Entities, row.BornSeq, row.LastSeq, row.Fading, row.Subgraphs)
		}
	}
	return nil
}

func newestSnapshotSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var newest string
	var size int64
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".snap") && n > newest {
			if info, err := e.Info(); err == nil {
				newest, size = n, info.Size()
			}
		}
	}
	return size
}

// reader is the closed-loop HTTP client of docs-live: it asks for the top
// stories, then fetches one of them, calling the handler in process. It
// reuses its requests and response buffer, so the garbage it makes is the
// handler's.
type reader struct {
	h   http.Handler
	top *http.Request

	lat      hist // call latencies; lat.n counts the calls
	failures int
	firstErr string
}

func newReader(h http.Handler, k int) *reader {
	return &reader{h: h, top: httptest.NewRequest(http.MethodGet, fmt.Sprintf("/stories/top?k=%d", k), nil)}
}

func (rd *reader) run(stop <-chan struct{}) {
	var top struct {
		Stories []struct {
			ID uint64 `json:"id"`
		} `json:"stories"`
	}
	story := httptest.NewRequest(http.MethodGet, "/stories/0", nil)
	w := &respWriter{header: http.Header{}}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		rd.call(w, rd.top)
		top.Stories = top.Stories[:0]
		if w.code != http.StatusOK {
			rd.fail(fmt.Sprintf("%s: status %d", rd.top.URL, w.code))
			continue
		}
		if err := json.Unmarshal(w.body.Bytes(), &top); err != nil {
			rd.fail(fmt.Sprintf("%s: %v", rd.top.URL, err))
			continue
		}
		if len(top.Stories) == 0 {
			continue
		}
		story.URL.Path = "/stories/" + strconv.FormatUint(top.Stories[i%len(top.Stories)].ID, 10)
		rd.call(w, story)
		// 404 is a valid answer: the story can end between the two reads.
		switch {
		case w.code == http.StatusNotFound:
		case w.code != http.StatusOK:
			rd.fail(fmt.Sprintf("%s: status %d", story.URL.Path, w.code))
		case !json.Valid(w.body.Bytes()):
			rd.fail(story.URL.Path + ": invalid JSON")
		}
	}
}

// call serves one request in process. Before it the reader yields the
// processor, as a server goroutine waiting on its connection would; without
// that it could hold a processor for a whole 10 ms scheduler slice while the
// writer waits.
func (rd *reader) call(w *respWriter, req *http.Request) {
	runtime.Gosched()
	w.reset()
	t := time.Now()
	rd.h.ServeHTTP(w, req)
	rd.lat.add(time.Since(t))
}

func (rd *reader) fail(msg string) {
	if rd.failures == 0 {
		rd.firstErr = msg
	}
	rd.failures++
}

// respWriter is a reusable http.ResponseWriter that keeps the status and
// body of the last response.
type respWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *respWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}
