package main

import (
	"bytes"
	"encoding/json"
)

// This file is the benchmark's catalogue: its workloads and the metrics each
// run reports. BENCHMARK.json is rendered from it (see specJSON), so the file
// and the code cannot disagree.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// The workloads, with why each exists and which layers it bypasses, so a
// change to a bypassed layer can predict "no change" there.
var workloads = []workloadSpec{
	{"edges", "Paper setting (dyndens run): edge-update text, engine, counting sink; stars, cheap explore and index dominate. Bypasses aggregate, story, serve and persist."},
	{"docs-sparse", "Documents at decay 0.7 in a closed loop: parse, aggregate, engine, story tracker; MaxExplore bounding dominates, explorations rare. Bypasses serve and persist."},
	{"docs-live", "Serve deployment at decay 0.85: WAL restart, then documents at a fixed rate beside an HTTP reader; dense regime, so explore, serve and persist all work hard."},
}

// The end-to-end metrics are the ones every workload has. Metrics that only
// one workload has (read QPS and latency, open-loop lag, error fraction) are
// printed in the run report instead; see README.md. The bounds are set by
// the run-to-run spread on a shared 2-vCPU machine, where host load moves
// wall-clock figures by ±10% within minutes.
var endToEnd = []endToEndSpec{
	{"items_per_s", "1/s", "higher", 0.24},
	{"latency_p50_us", "us", "lower", 0.24},
	{"latency_p99_us", "us", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// Per-layer metrics, named after the repository's modules. Times are shares
// of the measured window (of set-up time for persist.recover_frac), so a layer
// a workload bypasses reads 0 rather than a constant time.
var perLayer = []layerSpec{
	{"stream.parse.busy_frac", "fraction", "lower"},
	{"stream.parse.items", "count", "higher"},
	{"stream.parse.bytes", "bytes", "higher"},

	{"stream.aggregate.busy_frac", "fraction", "lower"},
	{"stream.aggregate.pair_updates", "count", "lower"},
	{"stream.aggregate.decay_updates", "count", "lower"},
	{"stream.aggregate.epochs", "count", "lower"},
	{"stream.aggregate.retired", "count", "lower"},
	{"stream.aggregate.tracked_pairs", "count", "lower"},
	{"stream.aggregate.epoch_pair_touches", "count", "lower"},

	{"core.busy_frac", "fraction", "lower"},
	{"core.unit_p99_us", "us", "lower"},
	{"core.epoch_unit_p99_us", "us", "lower"},
	{"core.epoch_busy_frac", "fraction", "lower"},
	{"core.updates", "count", "lower"},
	{"core.positive_updates", "count", "lower"},
	{"core.negative_updates", "count", "lower"},
	{"core.explorations", "count", "lower"},
	{"core.cheap_explores", "count", "lower"},
	{"core.maxexplore_skips", "count", "higher"},
	{"core.maxexplore_skip_frac", "fraction", "higher"},
	{"core.insertions", "count", "lower"},
	{"core.evictions", "count", "lower"},
	{"core.star_insertions", "count", "lower"},
	{"core.events", "count", "lower"},
	{"core.index_nodes_max", "count", "lower"},

	{"story.busy_frac", "fraction", "lower"},
	{"story.born", "count", "lower"},
	{"story.updated", "count", "lower"},
	{"story.merged", "count", "lower"},
	{"story.split", "count", "lower"},
	{"story.died", "count", "lower"},
	{"story.records", "count", "lower"},

	{"serve.publish_busy_frac", "fraction", "lower"},
	{"serve.publishes", "count", "lower"},
	{"serve.boundaries", "count", "lower"},
	{"serve.publish_frac", "fraction", "lower"},
	{"serve.reads", "count", "higher"},
	{"serve.read_busy_frac", "fraction", "lower"},

	{"persist.log_busy_frac", "fraction", "lower"},
	{"persist.capture_frac", "fraction", "lower"},
	{"persist.snapshot_frac", "fraction", "lower"},
	{"persist.recover_frac", "fraction", "lower"},
	{"persist.frames", "count", "lower"},
	{"persist.bytes", "bytes", "lower"},
	{"persist.snapshots", "count", "lower"},
	{"persist.snapshot_bytes", "bytes", "lower"},
	{"persist.replayed_frames", "count", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_frac", "fraction", "lower"},
	{"runtime.allocs_per_item", "count", "lower"},
	{"runtime.bytes_per_item", "bytes", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
}

// runSeconds is the measured time of one run.
const runSeconds = 30

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(spec()); err != nil {
		panic(err) // a static value of plain types always encodes
	}
	return buf.Bytes()
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
