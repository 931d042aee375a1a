// Command perfbench is dyndens's canonical benchmark. It runs one named
// workload in a single process, driving the pipeline only through the
// packages' public functions, checks the outputs, and prints every metric by
// name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics.
// --workload all runs every workload untraced and traced, prints the
// per-layer breakdown with the tracing overhead, and writes BENCHMARK.json.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	cpuProfile string
	scratch    string    // directory for the WAL and trace files
	out        io.Writer // the report
}

func (o options) scratchDir() string {
	if o.scratch == "" {
		return ".bench_out"
	}
	return o.scratch
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func (o options) tracer() *tracer {
	if o.trace {
		return newTracer()
	}
	return nil
}

// configMap records a run's settings in user units, with the environment.
func configMap(o options, workloadCfg any) map[string]any {
	m := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	raw, _ := json.Marshal(workloadCfg)
	var fields map[string]any
	_ = json.Unmarshal(raw, &fields) // a struct of plain fields always round-trips
	for k, v := range fields {
		m[k] = v
	}
	return m
}

func run(o options) (*result, error) {
	switch o.workload {
	case "edges":
		return runEdges(edgesDefaults, o)
	case "docs-sparse":
		return runSparse(sparseDefaults, o)
	case "docs-live":
		return runLive(liveDefaults, o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: edges, docs-sparse, docs-live, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = record spans and report the per-layer metrics")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	o.out = os.Stdout
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	os.Exit(runOne(o))
}

// runOne runs a single workload and prints its report and contract line.
func runOne(o options) int {
	if o.cpuProfile != "" {
		if err := os.MkdirAll(filepath.Dir(o.cpuProfile), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	fmt.Fprintf(o.out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	r, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	r.printReport(o.out)
	if r.tr != nil {
		path := filepath.Join(o.scratchDir(), fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := r.tr.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(o.out, "trace %s (%d spans)\n", path, len(r.tr.spans))
	}
	line, err := r.contract(o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(o.out, string(b))
	if !line.Correct || line.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, prints the per-layer
// self-time breakdown with the tracing overhead, and writes BENCHMARK.json.
func runAll(o options) int {
	type row struct {
		name          string
		plain, traced *result
	}
	var rows []row
	failed := false
	for _, w := range workloads {
		var pair [2]*result
		for i, traced := range []bool{false, true} {
			oo := o
			oo.workload, oo.trace = w.Name, traced
			fmt.Fprintf(o.out, "== %s trace=%v\n", w.Name, traced)
			r, err := run(oo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
				return 1
			}
			r.printReport(o.out)
			if !r.correct() || r.failed > 0 {
				failed = true
			}
			pair[i] = r
		}
		rows = append(rows, row{w.Name, pair[0], pair[1]})
	}
	fmt.Fprintln(o.out, "== summary (peak_rss_mb is the process's, so it includes earlier workloads here)")
	for _, rw := range rows {
		e2e := rw.plain.endToEndValues()
		var parts []string
		for _, m := range endToEnd {
			parts = append(parts, fmt.Sprintf("%s=%.6g %s", m.Name, e2e[m.Name], m.Unit))
		}
		overhead := 1 - rw.traced.itemsPerSecond()/rw.plain.itemsPerSecond()
		fmt.Fprintf(o.out, "%-12s %s tracing_overhead=%.1f%%\n", rw.name, strings.Join(parts, " "), 100*overhead)
		var layers []string
		for l := layer(0); l < numLayers; l++ {
			if s := rw.traced.self[l].Seconds() / rw.traced.window.Seconds(); s > 0 {
				layers = append(layers, fmt.Sprintf("%s=%.1f%%", layerNames[l], 100*s))
			}
		}
		fmt.Fprintf(o.out, "%-12s self time: %s\n", "", strings.Join(layers, " "))
	}
	if err := os.WriteFile("BENCHMARK.json", specJSON(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(o.out, "wrote BENCHMARK.json")
	if failed {
		return 1
	}
	return 0
}
