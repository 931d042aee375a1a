package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// result is everything one workload run measured and checked.
type result struct {
	workload string
	config   map[string]any // every setting in user units, as passed

	items   int           // input items (updates or documents) in the measured window
	updates uint64        // engine updates in the measured window
	window  time.Duration // measured time: first read to last boundary, summed over passes
	segs    []segment     // per pass, or per window of a live session
	lat     hist          // input → visible latency, all segments pooled
	setups  []time.Duration
	// peakRSS is VmHWM once the run's fixed work is done: the first pass,
	// or the live phase. Later passes are further independent streams, and
	// the peak over however many of them fit would grow with speed.
	peakRSS float64

	unitLat  hist
	epochLat hist

	checks    []check
	attempted int // input items, reads and checks
	failed    int // of those: errors and failed checks

	digest string
	extra  []reportLine       // workload-specific report lines
	layers map[string]float64 // per-layer metric values, by catalogue name
	self   [numLayers]time.Duration
	mem    memWindow
	tr     *tracer
}

// segment is the end-to-end outcome of one measured segment. The end-to-end
// metrics are medians over segments, so a slow pass or a burst of machine
// noise moves them little.
type segment struct {
	rate     float64 // input items per second
	p50, p99 float64 // input → visible latency, us
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type check struct {
	name string
	err  error
}

func newResult(workload string) *result {
	return &result{workload: workload, layers: make(map[string]float64)}
}

// addCheck records the outcome of one output check.
func (r *result) addCheck(name string, err error) {
	r.checks = append(r.checks, check{name, err})
	r.attempted++
	if failed(err) {
		r.failed++
	}
}

// failed reports whether a check outcome is a failure; a known defect of a
// checking function is reported but is not one.
func failed(err error) bool {
	var kd *knownDefect
	return err != nil && !errors.As(err, &kd)
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if failed(c.err) {
			return false
		}
	}
	return len(r.checks) > 0
}

// itemsPerSecond is the throughput over the whole measured window.
func (r *result) itemsPerSecond() float64 {
	if r.window <= 0 {
		return 0
	}
	return float64(r.items) / r.window.Seconds()
}

func (r *result) segMedian(f func(segment) float64) float64 {
	xs := make([]float64, len(r.segs))
	for i, s := range r.segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEndValues returns the end-to-end metrics by catalogue name.
func (r *result) endToEndValues() map[string]float64 {
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	return map[string]float64{
		"items_per_s":    r.segMedian(func(s segment) float64 { return s.rate }),
		"latency_p50_us": r.segMedian(func(s segment) float64 { return s.p50 }),
		"latency_p99_us": r.segMedian(func(s segment) float64 { return s.p99 }),
		"setup_s":        median(setups),
		"peak_rss_mb":    r.peakRSS,
	}
}

// absorb folds a probe's per-batch histograms into the result.
func (r *result) absorb(p *probe) {
	r.unitLat.merge(&p.unitLat)
	r.epochLat.merge(&p.epochLat)
}

// finish derives the metrics of the whole run; tr is its tracer, if any.
func (r *result) finish(tr *tracer) {
	if tr != nil {
		r.tr = tr
		r.self = tr.self
	}
	r.fillCommonLayers()
}

// fillCommonLayers adds the per-layer metrics every workload derives the same
// way: busy shares from the tracer and the runtime counters.
func (r *result) fillCommonLayers() {
	w := r.window.Seconds()
	frac := func(d time.Duration) float64 {
		if w <= 0 {
			return 0
		}
		return d.Seconds() / w
	}
	r.layers["stream.parse.busy_frac"] = frac(r.self[layerParse])
	r.layers["stream.aggregate.busy_frac"] = frac(r.self[layerAggregate])
	r.layers["core.busy_frac"] = frac(r.self[layerCore])
	r.layers["story.busy_frac"] = frac(r.self[layerStory])
	r.layers["serve.publish_busy_frac"] = frac(r.self[layerServe])
	r.layers["persist.log_busy_frac"] = frac(r.self[layerLog])
	r.layers["persist.capture_frac"] = frac(r.self[layerCapture])
	r.layers["core.unit_p99_us"] = r.unitLat.us(0.99)
	r.layers["core.epoch_unit_p99_us"] = r.epochLat.us(0.99)
	var epoch float64
	if core := r.self[layerCore].Seconds(); core > 0 {
		epoch = r.epochLat.sum.Seconds() / core
	}
	r.layers["core.epoch_busy_frac"] = epoch

	m := r.mem
	r.layers["runtime.gc_cycles"] = float64(m.gcCycles)
	r.layers["runtime.gc_pause_frac"] = frac(time.Duration(m.pauseNs))
	if r.items > 0 {
		r.layers["runtime.allocs_per_item"] = float64(m.mallocs) / float64(r.items)
		r.layers["runtime.bytes_per_item"] = float64(m.allocBytes) / float64(r.items)
	}
	r.layers["runtime.heap_peak_mb"] = float64(m.heapPeak) / (1 << 20)
}

// memWindow accumulates runtime counters over the measured passes only.
type memWindow struct {
	start      runtime.MemStats
	gcCycles   uint32
	pauseNs    uint64
	mallocs    uint64
	allocBytes uint64
	heapPeak   uint64
	sample     [1]metrics.Sample
	tick       int
}

func (m *memWindow) begin() {
	runtime.ReadMemStats(&m.start)
	m.sample[0].Name = "/memory/classes/heap/objects:bytes"
}

func (m *memWindow) end() {
	var e runtime.MemStats
	runtime.ReadMemStats(&e)
	m.gcCycles += e.NumGC - m.start.NumGC
	m.pauseNs += e.PauseTotalNs - m.start.PauseTotalNs
	m.mallocs += e.Mallocs - m.start.Mallocs
	m.allocBytes += e.TotalAlloc - m.start.TotalAlloc
	m.sampleHeap()
}

// poll samples the live heap every 256th call; boundary hooks call it.
func (m *memWindow) poll() {
	m.tick++
	if m.tick&255 == 0 {
		m.sampleHeap()
	}
}

func (m *memWindow) sampleHeap() {
	metrics.Read(m.sample[:])
	if v := m.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > m.heapPeak {
		m.heapPeak = v.Uint64()
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// digester hashes a run's output — event counts, final output-dense keys and
// story records — so two commits can be compared for identical output.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) line(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// printReport writes the human-readable report: configuration, checks, every
// metric by name and unit, and (when traced) the per-layer self time.
func (r *result) printReport(w io.Writer) {
	cfg, _ := json.Marshal(r.config)
	fmt.Fprintf(w, "config %s\n", cfg)
	fmt.Fprintf(w, "digest %s\n", r.digest)
	for _, c := range r.checks {
		switch {
		case failed(c.err):
			fmt.Fprintf(w, "check FAIL %s: %v\n", c.name, c.err)
		case c.err != nil:
			fmt.Fprintf(w, "check ok   %s (known defect: %v)\n", c.name, c.err)
		default:
			fmt.Fprintf(w, "check ok   %s\n", c.name)
		}
	}
	e2e := r.endToEndValues()
	for _, m := range endToEnd {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	lines := []reportLine{
		{"latency_samples", float64(r.lat.n), "count"},
		{"latency_p50_us_pooled", r.lat.us(0.50), "us"},
		{"latency_p99_us_pooled", r.lat.us(0.99), "us"},
		{"latency_p999_us_pooled", r.lat.us(0.999), "us"},
		{"segments", float64(len(r.segs)), "count"},
		{"window_s", r.window.Seconds(), "s"},
		{"items_per_s_window", r.itemsPerSecond(), "1/s"},
		{"updates_per_s", float64(r.updates) / r.window.Seconds(), "1/s"},
		{"error_frac", errFrac, "fraction"},
	}
	lines = append(lines, r.extra...)
	for _, l := range lines {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", l.name, l.value, l.unit)
	}
	if r.tr != nil {
		var total time.Duration
		for _, d := range r.self {
			total += d
		}
		for l := layer(0); l < numLayers; l++ {
			fmt.Fprintf(w, "layer  %-34s %14.6g s  %5.1f%% of window  (%d calls)\n",
				layerNames[l]+".busy_s", r.self[l].Seconds(), 100*r.self[l].Seconds()/r.window.Seconds(), r.tr.calls[l])
		}
		fmt.Fprintf(w, "layer  %-34s %14.6g s  %5.1f%% of window\n", "unattributed", (r.window - total).Seconds(),
			100*(r.window-total).Seconds()/r.window.Seconds())
	}
	for _, m := range perLayer {
		if r.tr == nil && (strings.HasSuffix(m.Name, "busy_frac") || m.Name == "persist.capture_frac" || strings.HasSuffix(m.Name, "unit_p99_us")) {
			continue // measured from spans: traced runs only
		}
		fmt.Fprintf(w, "layer  %-34s %14.6g %s\n", m.Name, r.layers[m.Name], m.Unit)
	}
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

// contractLine is the last line of a run's output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract builds the last output line: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func (r *result) contract(traced bool) (contractLine, error) {
	out := contractLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			v, ok := r.layers[m.Name]
			if !ok {
				return out, fmt.Errorf("perfbench: %s did not measure %s", r.workload, m.Name)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		return out, nil
	}
	for name, v := range r.endToEndValues() {
		out.Metrics[name] = metricValue{v, unitOf(name)}
	}
	return out, nil
}
