package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/persist"
	"dyndens/internal/serve"
	"dyndens/internal/shard"
	"dyndens/internal/story"
	"dyndens/internal/stream"
)

// benchResult is the machine-readable record one `dyndens bench -json` run
// emits. It is the unit of the repo's performance trajectory: committed
// snapshots (BENCH_PR3.json, ...) and CI jobs compare these fields across
// revisions, so additions are fine but renames are breaking.
type benchResult struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU contextualises every parallel number in the snapshot: on a
	// single-core runner K workers time-slice one core, so sharded
	// throughput cannot beat the single engine there and the meaningful
	// scaling ratio is scoped vs mirror at equal K.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's usable parallelism for the run (it can
	// be below NumCPU under cgroup limits or an explicit override).
	GOMAXPROCS int `json:"gomaxprocs"`

	Workload struct {
		Vertices         int     `json:"vertices"`
		Updates          int     `json:"updates"`
		Seed             int64   `json:"seed"`
		Skew             float64 `json:"skew"`
		NegativeFraction float64 `json:"negative_fraction"`
		MeanDelta        float64 `json:"mean_delta"`
	} `json:"workload"`

	Config struct {
		Measure          string  `json:"measure"`
		T                float64 `json:"t"`
		Nmax             int     `json:"nmax"`
		DeltaIt          float64 `json:"delta_it"`
		MaxExplore       bool    `json:"max_explore"`
		DegreePrioritize bool    `json:"degree_prioritize"`
	} `json:"config"`

	Shards int `json:"shards"`
	Batch  int `json:"batch"`
	// Batched marks a run driven through Engine.ProcessBatch (epoch
	// coalescing); Ticks is the number of logical engine boundaries (equal to
	// the update count for sequential runs, the batch count for batched ones).
	Batched bool `json:"batched,omitempty"`
	Ticks   int  `json:"ticks,omitempty"`

	// Throughput of the engine processing itself (source I/O excluded for the
	// single-threaded path; wall-clock including merge for the sharded path).
	UpdatesPerSecond float64 `json:"updates_per_second"`
	NsPerUpdate      float64 `json:"ns_per_update"`
	ElapsedNs        int64   `json:"elapsed_ns"`

	// Whole-process allocation accounting over the replay (runtime.MemStats
	// deltas divided by the update count). For shards > 0 this includes the
	// batching/merge machinery, not just the engines.
	AllocsPerUpdate float64 `json:"allocs_per_update"`
	BytesPerUpdate  float64 `json:"bytes_per_update"`

	Events struct {
		Became         uint64 `json:"became"`
		Ceased         uint64 `json:"ceased"`
		NetOutputDense int    `json:"net_output_dense"`
		Deduped        uint64 `json:"deduped,omitempty"`
	} `json:"events"`

	Engine struct {
		Updates       uint64 `json:"updates"`
		Explorations  uint64 `json:"explorations"`
		CheapExplores uint64 `json:"cheap_explores"`
		Insertions    uint64 `json:"insertions"`
		Evictions     uint64 `json:"evictions"`
		IndexedDense  int    `json:"indexed_dense"`
		IndexedStars  int    `json:"indexed_stars"`
		IndexNodes    int    `json:"index_nodes"`
		MaxIndexNodes int    `json:"max_index_nodes"`
	} `json:"engine"`

	// Overlap is the sharded delivery policy ("scoped" or "mirror"; empty for
	// single-threaded runs). MeanDeliveryFraction is the mean per-shard
	// fraction of work units that needed full processing — 1.0 under mirror
	// broadcast, ideally near 1/K plus the interest overlap under scoped
	// delivery. ParallelEfficiency is busy / (wall · K).
	Overlap              string  `json:"overlap,omitempty"`
	MeanDeliveryFraction float64 `json:"mean_delivery_fraction,omitempty"`
	ParallelEfficiency   float64 `json:"parallel_efficiency,omitempty"`

	// PerShardBusyNs is the per-worker busy time for sharded runs (empty for
	// the single-threaded path). PerShardDelivered/PerShardApplied partition
	// each worker's work units into fully-processed vs weight-apply-only
	// (see shard.ShardLoad; Applied is always 0 under mirror delivery).
	PerShardBusyNs    []int64  `json:"per_shard_busy_ns,omitempty"`
	PerShardDelivered []uint64 `json:"per_shard_delivered,omitempty"`
	PerShardApplied   []uint64 `json:"per_shard_applied,omitempty"`

	// Scaling is present for -scale runs: the same workload replayed at each
	// requested shard count (sharded counts in both delivery modes), plus the
	// headline ratios the CI gate (tools/benchgate -snapshot) consumes.
	Scaling *scalingResult `json:"scaling,omitempty"`

	// DocPipeline is present for -docs runs: the document→story pipeline's
	// aggregation and story-lifecycle counters.
	DocPipeline *docPipelineResult `json:"doc_pipeline,omitempty"`

	// BatchCompare is present for single-threaded -batch runs: the same
	// workload replayed twice — per-update Process vs coalesced ProcessBatch
	// over identical batch partitions — with the throughput split by batch
	// provenance. DecaySpeedup is the headline epoch-coalescing gain: batched
	// vs sequential upd/s on the epoch-decay-burst segment.
	BatchCompare *batchCompareResult `json:"batch_compare,omitempty"`

	// Serve is present for -serve-readers runs: the closed-loop read-path
	// report (QPS and latency percentiles of snapshot + top-k + story
	// fetches issued concurrently with the measured replay) plus the view's
	// publication counters. The CI gate reads ReadQPS as a floor.
	Serve *serveBenchResult `json:"serve,omitempty"`

	// DecayModeCompare is present for -decay-compare runs: the identical
	// document workload replayed through exact fading (per-pair epoch sweep)
	// and rescaled fading (O(1) threshold ticks), both epoch-coalesced. The
	// headline DecaySegmentSpeedup is an elapsed-TIME ratio on the epoch-tick
	// segment (exact/rescale over the same epoch count) — upd/s is
	// meaningless there because the rescaled segment carries almost no
	// updates by design. The CI gate reads it as a floor.
	DecayModeCompare *decayModeCompareResult `json:"decay_mode_compare,omitempty"`

	// WALOverhead is present for -wal-compare runs: the identical document
	// workload replayed with durability off and on (document WAL + periodic
	// background snapshots into a throwaway directory; outputs must match).
	// Ratio is throughput retained — off wall time / on wall time — and the
	// CI gate (tools/benchgate -min-wal-ratio) reads it as a floor.
	WALOverhead *walOverheadResult `json:"wal_overhead,omitempty"`
}

// walOverheadResult is the -wal-compare JSON block.
type walOverheadResult struct {
	OffWallNs int64   `json:"off_wall_ns"`
	OnWallNs  int64   `json:"on_wall_ns"`
	Ratio     float64 `json:"ratio"`
	Fsync     bool    `json:"fsync,omitempty"`
	Frames    uint64  `json:"frames"`
	Bytes     uint64  `json:"bytes"`
	Snapshots uint64  `json:"snapshots"`
}

// serveBenchResult is the JSON serve block: what N concurrent readers saw
// while the writer ingested the measured workload.
type serveBenchResult struct {
	Readers         int     `json:"readers"`
	TopK            int     `json:"top_k"`
	Reads           uint64  `json:"reads"`
	ReadQPS         float64 `json:"read_qps"`
	P50Ns           int64   `json:"p50_ns"`
	P95Ns           int64   `json:"p95_ns"`
	P99Ns           int64   `json:"p99_ns"`
	Samples         int     `json:"samples"`
	WallNs          int64   `json:"wall_ns"`
	EpochsPublished uint64  `json:"epochs_published"`
	Boundaries      uint64  `json:"boundaries"`
	StoriesFinal    int     `json:"stories_final"`
}

func newServeBenchResult(st serve.LoadStats, v *serve.View) *serveBenchResult {
	vs := v.Stats()
	return &serveBenchResult{
		Readers:         st.Readers,
		TopK:            st.TopK,
		Reads:           st.Reads,
		ReadQPS:         st.QPS(),
		P50Ns:           st.P50.Nanoseconds(),
		P95Ns:           st.P95.Nanoseconds(),
		P99Ns:           st.P99.Nanoseconds(),
		Samples:         st.Samples,
		WallNs:          st.Wall.Nanoseconds(),
		EpochsPublished: vs.Publishes,
		Boundaries:      vs.Boundaries,
		StoriesFinal:    vs.Stories,
	}
}

func printServeSummary(st serve.LoadStats, v *serve.View) {
	vs := v.Stats()
	fmt.Printf("serve:  readers=%d k=%d reads=%d (%.0f reads/s) p50=%v p95=%v p99=%v epochs=%d stories=%d\n",
		st.Readers, st.TopK, st.Reads, st.QPS(), st.P50, st.P95, st.P99, vs.Publishes, vs.Stories)
}

// segmentResult is one provenance segment of a replay in the JSON output.
type segmentResult struct {
	Updates          int     `json:"updates"`
	Batches          int     `json:"batches"`
	ElapsedNs        int64   `json:"elapsed_ns"`
	UpdatesPerSecond float64 `json:"updates_per_second"`
}

func newSegmentResult(s stream.SegmentStats) segmentResult {
	return segmentResult{
		Updates:          s.Updates,
		Batches:          s.Batches,
		ElapsedNs:        s.Elapsed.Nanoseconds(),
		UpdatesPerSecond: s.UpdatesPerSecond(),
	}
}

// modeResult is one replay mode (sequential or batched) of the comparison.
type modeResult struct {
	UpdatesPerSecond float64       `json:"updates_per_second"`
	ElapsedNs        int64         `json:"elapsed_ns"`
	Ticks            int           `json:"ticks"`
	Decay            segmentResult `json:"decay"`
	Other            segmentResult `json:"other"`
}

func newModeResult(s stream.ReplayStats) modeResult {
	return modeResult{
		UpdatesPerSecond: s.UpdatesPerSecond(),
		ElapsedNs:        s.Elapsed.Nanoseconds(),
		Ticks:            s.Ticks,
		Decay:            newSegmentResult(s.DecaySeg),
		Other:            newSegmentResult(s.OtherSeg),
	}
}

type batchCompareResult struct {
	Sequential     modeResult `json:"sequential"`
	Batched        modeResult `json:"batched"`
	DecaySpeedup   float64    `json:"decay_speedup"`
	OverallSpeedup float64    `json:"overall_speedup"`
}

type decayModeCompareResult struct {
	Exact               modeResult `json:"exact"`
	Rescale             modeResult `json:"rescale"`
	DecaySegmentSpeedup float64    `json:"decay_segment_speedup"`
	OverallSpeedup      float64    `json:"overall_speedup"`
}

// elapsedSpeedup is reference time / measured time: how many times faster the
// measured pass finished the same logical work.
func elapsedSpeedup(reference, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(reference) / float64(measured)
}

func speedup(batched, sequential float64) float64 {
	if sequential <= 0 {
		return 0
	}
	return batched / sequential
}

// scaleEntry is one (shards, overlap) point of a -scale run. The event
// counters are included so the curve doubles as a conformance record: every
// point of a run replays the identical workload, so became/ceased/net must
// agree across the whole curve (runBenchScale enforces this).
type scaleEntry struct {
	Shards               int      `json:"shards"`
	Overlap              string   `json:"overlap,omitempty"` // empty for the single-engine point
	Batched              bool     `json:"batched,omitempty"` // epoch-coalesced replay (bench -scale -batch)
	UpdatesPerSecond     float64  `json:"updates_per_second"`
	ElapsedNs            int64    `json:"elapsed_ns"`
	MeanDeliveryFraction float64  `json:"mean_delivery_fraction,omitempty"`
	ParallelEfficiency   float64  `json:"parallel_efficiency,omitempty"`
	PerShardBusyNs       []int64  `json:"per_shard_busy_ns,omitempty"`
	PerShardDelivered    []uint64 `json:"per_shard_delivered,omitempty"`
	PerShardApplied      []uint64 `json:"per_shard_applied,omitempty"`
	Became               uint64   `json:"became"`
	Ceased               uint64   `json:"ceased"`
	NetOutputDense       int      `json:"net_output_dense"`
}

// scalingResult is the -scale block of benchResult. The ratio fields are the
// gate headlines: scoped K=4 vs mirror K=4 is the delivery-policy win at
// equal parallelism, scoped K=4 vs single the end-to-end parallel win; both
// are 0 when the corresponding points were not part of the -scale list.
type scalingResult struct {
	Entries            []scaleEntry `json:"entries"`
	ScopedK4VsMirrorK4 float64      `json:"scoped_k4_vs_mirror_k4,omitempty"`
	ScopedK4VsSingle   float64      `json:"scoped_k4_vs_single,omitempty"`
}

// docPipelineResult is the -docs mode extension of benchResult. The config
// fields make the snapshot self-describing: together with the shared
// workload/config blocks they are exactly the flags that reproduce the run
// (in -docs mode the workload block's negative_fraction/mean_delta are
// zeroed — the document generator has no such knobs).
type docPipelineResult struct {
	Stories     int     `json:"stories"`
	StorySize   int     `json:"story_size"`
	EpochLength int64   `json:"epoch_length"`
	Decay       float64 `json:"decay"`
	DecayMode   string  `json:"decay_mode"`

	Docs             int   `json:"docs"`
	PairUpdates      int   `json:"pair_updates"`
	DecayUpdates     int   `json:"decay_updates"`
	RetiredPairs     int   `json:"retired_pairs"`
	Epochs           int64 `json:"epochs"`
	TrackedPairs     int   `json:"tracked_pairs"`
	ThresholdUpdates int   `json:"threshold_updates,omitempty"`
	Renorms          int   `json:"renorms,omitempty"`
	EpochPairTouches int   `json:"epoch_pair_touches,omitempty"`

	StoriesBorn   int `json:"stories_born"`
	StoriesSplit  int `json:"stories_split"`
	StoriesMerged int `json:"stories_merged"`
	StoriesDied   int `json:"stories_died"`
	StoriesLive   int `json:"stories_live"`
	StoriesFading int `json:"stories_fading"`
	Records       int `json:"records"`
}

func newDocPipelineResult(stories, storySize int, aggCfg stream.AggregatorConfig, aggStats stream.AggregatorStats, tracker *story.Tracker) *docPipelineResult {
	st := tracker.Stats()
	return &docPipelineResult{
		Stories:          stories,
		StorySize:        storySize,
		EpochLength:      aggCfg.EpochLength,
		Decay:            aggCfg.Decay,
		DecayMode:        aggCfg.DecayMode.String(),
		Docs:             aggStats.Docs,
		PairUpdates:      aggStats.PairUpdates,
		DecayUpdates:     aggStats.DecayUpdates,
		RetiredPairs:     aggStats.Retired,
		Epochs:           aggStats.Epochs,
		TrackedPairs:     aggStats.TrackedPairs,
		ThresholdUpdates: aggStats.ThresholdUpdates,
		Renorms:          aggStats.Renorms,
		EpochPairTouches: aggStats.EpochPairTouches,
		StoriesBorn:      st.Born,
		StoriesSplit:     st.Split,
		StoriesMerged:    st.Merged,
		StoriesDied:      st.Died,
		StoriesLive:      st.Live,
		StoriesFading:    st.Fading,
		Records:          len(tracker.Records()),
	}
}

func (r *benchResult) fillCommon(synthCfg stream.SynthConfig, engCfg core.Config, shards, batch int) {
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.NumCPU = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Workload.Vertices = synthCfg.Vertices
	r.Workload.Updates = synthCfg.Updates
	r.Workload.Seed = synthCfg.Seed
	r.Workload.Skew = synthCfg.Skew
	r.Workload.NegativeFraction = synthCfg.NegativeFraction
	r.Workload.MeanDelta = synthCfg.MeanDelta
	r.Config.Measure = engCfg.Measure.Name()
	r.Config.T = engCfg.T
	r.Config.Nmax = engCfg.Nmax
	r.Config.DeltaIt = engCfg.DeltaIt
	r.Config.MaxExplore = engCfg.EnableMaxExplore
	r.Config.DegreePrioritize = engCfg.EnableDegreePrioritize
	r.Shards = shards
	r.Batch = batch
}

// fillThroughput derives the rate fields from an (updates, elapsed) pair —
// engine time for the single-threaded path, wall clock for the sharded one.
func (r *benchResult) fillThroughput(updates int, elapsed time.Duration) {
	r.ElapsedNs = elapsed.Nanoseconds()
	if updates > 0 && elapsed > 0 {
		r.UpdatesPerSecond = float64(updates) / elapsed.Seconds()
		r.NsPerUpdate = float64(elapsed.Nanoseconds()) / float64(updates)
	}
}

func (r *benchResult) fillEngineStats(s core.Stats) {
	r.Engine.Updates = s.Updates
	r.Engine.Explorations = s.Explorations
	r.Engine.CheapExplores = s.CheapExplores
	r.Engine.Insertions = s.Insertions
	r.Engine.Evictions = s.Evictions
	r.Engine.IndexedDense = s.IndexedDense
	r.Engine.IndexedStars = s.IndexedStars
	r.Engine.IndexNodes = s.IndexNodes
	r.Engine.MaxIndexNodes = s.MaxIndexNodes
}

// writeJSON writes the result to path ("-" for stdout).
func (r *benchResult) writeJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memSnapshot captures the allocation counters relevant to per-update
// accounting. GC is forced first so the deltas measure the replay, not
// leftover garbage churn.
type memSnapshot struct {
	mallocs    uint64
	totalAlloc uint64
}

func takeMemSnapshot() memSnapshot {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
}

func (m memSnapshot) perUpdate(updates int) (allocs, bytes float64) {
	if updates <= 0 {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m.mallocs) / float64(updates),
		float64(ms.TotalAlloc-m.totalAlloc) / float64(updates)
}

// cmdBench replays a seeded synthetic stream end-to-end (generator → replay →
// engine → counting sink) and prints the throughput/latency summary that
// serves as the repo's performance baseline. With -shards K the stream is
// driven through the sharded engine instead, reporting aggregate wall-clock
// throughput plus per-shard busy time, so the single-threaded (K=0) and
// sharded paths can be benchmarked side by side. With -json path the run
// additionally emits a machine-readable benchResult (path "-" for stdout),
// the format the repo's committed perf trajectory (BENCH_PR3.json, ...) and
// CI regression tooling consume.
//
// Note the threshold/workload interplay: weights accumulate for the whole
// run, so a threshold far below the weight of the hottest edges (high -skew
// or long streams with low -T) makes a combinatorial number of subgraphs
// dense — that is a property of the Engagement problem, not a bug. The
// defaults (uniform endpoints, T=3) keep the index sparse at any length.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("dyndens bench", flag.ExitOnError)
	newSynth := synthFlags(fs)
	readBatch := fs.Int("read-batch", 256, "micro-batch size for the replay driver (with -batch -docs the aggregator's own epoch/document batches are never split)")
	batchMode := fs.Bool("batch", false, "epoch coalescing: drive the engine through ProcessBatch; single-threaded runs also replay the sequential baseline and report the batched-vs-sequential comparison")
	shards := fs.Int("shards", 0, "partition the engine across K workers (0 = single-threaded)")
	newOverlap := overlapFlag(fs)
	scaleList := fs.String("scale", "", "comma-separated shard `counts` (0 = single-threaded, must be included); replay the identical workload at each count — sharded counts in both scoped and mirror delivery — and emit the scaling curve; combine with -batch for epoch-coalesced points (incompatible with -shards/-docs)")
	jsonOut := fs.String("json", "", "also write a machine-readable result to this `path` (- for stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the replay to this `path`")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (taken after the measured pass) to this `path`")
	docsMode := fs.Bool("docs", false, "bench the document→story pipeline: -vertices are background entities, -updates documents, -skew the background Zipf exponent (-neg/-mean unused)")
	docStories := fs.Int("doc-stories", 3, "planted stories (with -docs)")
	docStorySize := fs.Int("doc-story-size", 4, "entities per planted story (with -docs)")
	epoch := fs.Int64("epoch", 25, "fading epoch length in document time units (with -docs)")
	decay := fs.Float64("decay", 0.7, "per-epoch fading factor (with -docs)")
	decayModeFlag := fs.String("decay-mode", "rescale", "epoch fading realisation (with -docs): rescale (O(1) ticks) or exact (per-pair sweep)")
	decayCompare := fs.Bool("decay-compare", false, "replay the -docs workload through exact AND rescaled fading (both epoch-coalesced) and report the decay-segment time ratio as the JSON decay_mode_compare block (single-threaded -docs only)")
	serveReaders := fs.Int("serve-readers", 0, "run N concurrent closed-loop snapshot readers (top-k + story fetches) against the live story view during the measured replay and report read QPS and latency percentiles as the JSON serve block; the readers share the process, so writer throughput and alloc counters include their cost (0 = off)")
	serveK := fs.Int("serve-k", 10, "top-k size each serve reader queries (with -serve-readers)")
	walCompare := fs.Bool("wal-compare", false, "replay the -docs workload twice — durability off and on (document WAL + periodic snapshots into a throwaway directory; outputs must match) — and report the overhead as the JSON wal_overhead block (single-threaded rescale -docs only)")
	walEvery := fs.Uint64("wal-snapshot-every", 5000, "with -wal-compare: background snapshot cadence in documents (0 = WAL only)")
	walFsync := fs.Bool("wal-fsync", false, "with -wal-compare: fsync every WAL frame and snapshot (measures power-loss-durable overhead)")
	newEngineCfg := engineFlags(fs, 3, 5)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectPositionalArgs(fs, "dyndens bench"); err != nil {
		return err
	}
	synthCfg, err := newSynth()
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if *docsMode {
		if err := checkDecay(*decay); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	benchDecayMode, err := stream.ParseDecayMode(*decayModeFlag)
	if err != nil {
		return fmt.Errorf("bench: -decay-mode: %w", err)
	}
	if *decayCompare {
		if !*docsMode {
			return fmt.Errorf("bench: -decay-compare requires -docs (fading is a document-pipeline concern)")
		}
		if *shards > 0 || *serveReaders > 0 {
			return fmt.Errorf("bench: -decay-compare is incompatible with -shards and -serve-readers")
		}
		if benchDecayMode != stream.DecayRescale {
			return fmt.Errorf("bench: -decay-compare measures rescale against the exact reference; drop -decay-mode %s", benchDecayMode)
		}
	}
	if *serveReaders < 0 {
		return fmt.Errorf("bench: -serve-readers must be ≥ 0, got %d", *serveReaders)
	}
	if *serveReaders > 0 && *serveK <= 0 {
		return fmt.Errorf("bench: -serve-k must be ≥ 1, got %d", *serveK)
	}
	if *walCompare {
		if !*docsMode {
			return fmt.Errorf("bench: -wal-compare requires -docs (the WAL unit of the document pipeline is the document)")
		}
		if *shards > 0 || *serveReaders > 0 || *batchMode || *decayCompare {
			return fmt.Errorf("bench: -wal-compare is incompatible with -shards, -batch, -decay-compare, and -serve-readers")
		}
		if benchDecayMode != stream.DecayRescale {
			// The persisted driver is the batch driver; an exact-mode reference
			// pass would run per-update and the tick counts would not line up.
			return fmt.Errorf("bench: -wal-compare measures the rescale pipeline; drop -decay-mode %s", benchDecayMode)
		}
	} else if *walEvery != 5000 || *walFsync {
		return fmt.Errorf("bench: -wal-snapshot-every/-wal-fsync require -wal-compare")
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The -docs pipeline replays aggregated co-occurrence updates into the
	// engine with the story tracker attached, so the measured cost is the
	// full documents-in → stories-out path; the default mode replays raw
	// synthetic edge deltas into a counting sink. The factory builds a fresh
	// pipeline per replay so the -batch comparison can drive the identical
	// workload through both modes; grace is per-pass because its unit is the
	// engine tick (updates sequentially, batches when coalescing).
	benchAggCfg := func(mode stream.DecayMode) stream.AggregatorConfig {
		return stream.AggregatorConfig{EpochLength: *epoch, Decay: *decay, DecayMode: mode}
	}
	makePipeline := func(grace uint64, mode stream.DecayMode) (src stream.UpdateSource, agg *stream.Aggregator, tracker *story.Tracker, err error) {
		if !*docsMode {
			src, err = stream.NewSynthetic(synthCfg)
			return src, nil, nil, err
		}
		gen, err := stream.NewDocSynthetic(stream.DocSynthConfig{
			BackgroundEntities: synthCfg.Vertices,
			Stories:            *docStories,
			StorySize:          *docStorySize,
			Docs:               synthCfg.Updates,
			Seed:               synthCfg.Seed,
			BackgroundSkew:     synthCfg.Skew,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if agg, err = stream.NewAggregator(gen, benchAggCfg(mode)); err != nil {
			return nil, nil, nil, err
		}
		if tracker, err = story.NewTracker(story.Config{MinCardinality: 3, Grace: grace}); err != nil {
			return nil, nil, nil, err
		}
		return agg, agg, tracker, nil
	}

	// graceUpdates is the reference story grace window in per-update ticks.
	// A batched run's tracker counts batch ticks instead, so its grace is
	// rescaled by the workload's updates-per-tick ratio (measured by an
	// untimed pre-drain of the deterministic pipeline) — otherwise the two
	// timed passes of the -batch comparison would do different story-expiry
	// work and the speedup would partly measure tracker-workload divergence.
	const graceUpdates = 350
	batchedGrace := uint64(graceUpdates)
	if (*batchMode || *decayCompare) && *docsMode {
		// The two fading modes are tick-aligned by construction (exact mode
		// also emits a decay group at every epoch crossing), so one pre-drain
		// measures the batch structure for both -decay-compare passes.
		src, _, _, err := makePipeline(graceUpdates, benchDecayMode)
		if err != nil {
			return err
		}
		bs := stream.AsBatchSource(src, *readBatch)
		updates, ticks := 0, 0
		for {
			b, err := bs.NextBatch()
			if err != nil {
				break
			}
			updates += len(b.Updates)
			ticks++
		}
		if updates > 0 && ticks > 0 {
			batchedGrace = max(1, uint64(float64(graceUpdates)*float64(ticks)/float64(updates)+0.5))
		}
	}
	engCfg, err := newEngineCfg()
	if err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("bench: -shards must be ≥ 0, got %d", *shards)
	}
	// Validate even for the single-threaded path, where the value is unused —
	// a typo'd -overlap should fail loudly regardless of -shards.
	if _, err := newOverlap(); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		// Written at exit so the profile reflects the heap after the measured
		// pass; a failed write must not fail the benchmark itself.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *scaleList != "" {
		if *shards > 0 || *docsMode {
			return fmt.Errorf("bench: -scale is incompatible with -shards and -docs")
		}
		if *serveReaders > 0 {
			return fmt.Errorf("bench: -scale is incompatible with -serve-readers")
		}
		ks, err := parseScaleList(*scaleList)
		if err != nil {
			return err
		}
		return runBenchScale(ctx, ks, synthCfg, engCfg, *readBatch, *batchMode, *jsonOut)
	}

	// Reports record the user's configuration: in rescale mode the engine's
	// own Config carries the normalized threshold, which is an internal unit.
	userCfg := engCfg.WithDefaults()
	header := func(extra string) {
		fmt.Printf("bench: %d vertices, %d updates (seed=%d skew=%g neg=%g mean=%g) | %s T=%g Nmax=%d δit=%.4g batch=%d%s\n",
			synthCfg.Vertices, synthCfg.Updates, synthCfg.Seed, synthCfg.Skew, synthCfg.NegativeFraction, synthCfg.MeanDelta,
			userCfg.Measure.Name(), userCfg.T, userCfg.Nmax, userCfg.DeltaIt, *readBatch, extra)
	}

	var result benchResult
	finishJSON := func(agg *stream.Aggregator, tracker *story.Tracker) error {
		if *jsonOut == "" {
			return nil
		}
		// agg is nil when a raw workload carries a serving-only tracker.
		if tracker != nil && agg != nil {
			result.DocPipeline = newDocPipelineResult(*docStories, *docStorySize, benchAggCfg(benchDecayMode), agg.Stats(), tracker)
			result.Workload.NegativeFraction, result.Workload.MeanDelta = 0, 0
		}
		return result.writeJSON(*jsonOut)
	}

	if *shards > 0 {
		overlap, err := newOverlap()
		if err != nil {
			return err
		}
		grace := uint64(graceUpdates)
		if *batchMode {
			grace = batchedGrace
		}
		src, agg, tracker, err := makePipeline(grace, benchDecayMode)
		if err != nil {
			return err
		}
		se, err := shard.New(shard.Config{Shards: *shards, Engine: engCfg, Overlap: overlap})
		if err != nil {
			return err
		}
		defer se.Close()
		// With -serve-readers the tracker is wrapped in a snapshot-publishing
		// view builder and the closed-loop readers run for the whole replay;
		// raw (non -docs) workloads get a tracker just for serving.
		var bld *serve.Builder
		if *serveReaders > 0 {
			if tracker == nil {
				if tracker, err = story.NewTracker(story.Config{Grace: grace, MinCardinality: 3}); err != nil {
					return err
				}
			}
			bld = serve.NewBuilder(tracker)
			se.SetSeqSink(bld)
		} else if tracker != nil {
			se.SetSeqSink(tracker)
		}
		sink := &core.CountingSink{}
		r := stream.NewShardReplay(src, se, sink)
		// Graceful stop: a signal drains to the next batch boundary and the
		// partial stats are printed; a partial pass never writes JSON.
		r.SetBoundaryHook(func() error {
			if ctx.Err() != nil {
				return stream.ErrStopped
			}
			return nil
		})
		var ld *serve.Load
		if bld != nil {
			ld = serve.StartLoad(bld.View(), serve.LoadConfig{Readers: *serveReaders, TopK: *serveK, Seed: 1})
		}
		mem := takeMemSnapshot()
		var st stream.ShardReplayStats
		switch {
		case *batchMode:
			st, err = r.RunBatches(*readBatch, true)
		case *docsMode && benchDecayMode == stream.DecayRescale:
			// Rescaled decay is batch-structured (threshold epoch units), so
			// the non-coalescing replay still runs through the batch driver.
			st, err = r.RunBatches(*readBatch, false)
		default:
			st, err = r.Run(*readBatch)
		}
		if errors.Is(err, stream.ErrStopped) {
			if ld != nil {
				ld.Stop()
			}
			fmt.Println(st)
			fmt.Println("bench: interrupted — partial pass, summary and JSON omitted")
			return nil
		}
		if err != nil {
			return err
		}
		stats := se.Stats()
		allocs, bytes := mem.perUpdate(st.Updates)
		extra := fmt.Sprintf(" shards=%d overlap=%s", *shards, overlap)
		if *batchMode {
			extra += " batched"
		}
		header(extra)
		fmt.Println(st)
		fmt.Printf("sink:   became=%d ceased=%d (net output-dense=%d, deduped=%d)\n",
			sink.Became, sink.Ceased, se.OutputDenseCount(), stats.DedupedEvents)
		var loadStats serve.LoadStats
		if bld != nil {
			bld.Close(uint64(st.Ticks))
			loadStats = ld.Stop()
		} else if tracker != nil {
			tracker.Close(uint64(st.Ticks))
		}
		if tracker != nil && agg != nil {
			printDocBenchSummary(agg, tracker)
		}
		if bld != nil {
			printServeSummary(loadStats, bld.View())
		}
		fmt.Println(shardedSummary(stats))
		if *jsonOut != "" {
			result.fillCommon(synthCfg, userCfg, *shards, *readBatch)
			result.fillThroughput(st.Updates, st.Wall)
			result.fillEngineStats(stats.Aggregate)
			result.Batched = *batchMode
			result.Ticks = st.Ticks
			result.AllocsPerUpdate, result.BytesPerUpdate = allocs, bytes
			result.Events.Became = sink.Became
			result.Events.Ceased = sink.Ceased
			result.Events.NetOutputDense = se.OutputDenseCount()
			result.Events.Deduped = stats.DedupedEvents
			result.Overlap = overlap.String()
			result.MeanDeliveryFraction = st.MeanDeliveryFraction()
			result.ParallelEfficiency = st.ParallelEfficiency()
			for _, load := range stats.Loads {
				result.PerShardBusyNs = append(result.PerShardBusyNs, load.Busy.Nanoseconds())
				result.PerShardDelivered = append(result.PerShardDelivered, load.Delivered)
				result.PerShardApplied = append(result.PerShardApplied, load.Applied)
			}
			if bld != nil {
				result.Serve = newServeBenchResult(loadStats, bld.View())
			}
			return finishJSON(agg, tracker)
		}
		return nil
	}

	// Single-threaded. runOnce replays one fresh pipeline; in -batch mode it
	// is called twice — sequential baseline first, then coalesced — over the
	// same batch partition (RunBatches with coalesce=false times per-update
	// processing at batch granularity, which is what makes the segment
	// comparison apples-to-apples).
	type singleRun struct {
		eng         *core.Engine
		sink        *core.CountingSink
		agg         *stream.Aggregator
		tracker     *story.Tracker
		bld         *serve.Builder
		load        serve.LoadStats
		st          stream.ReplayStats
		wall        time.Duration // whole-replay wall clock, source + aggregation + engine
		allocs      float64
		bytes       float64
		interrupted bool // signal mid-pass: st is partial, nothing downstream of it is valid
	}
	runOnce := func(coalesce bool, mode stream.DecayMode) (*singleRun, error) {
		grace := uint64(graceUpdates)
		if (*batchMode || *decayCompare) && coalesce {
			grace = batchedGrace
		}
		src, agg, tracker, err := makePipeline(grace, mode)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(engCfg)
		if err != nil {
			return nil, err
		}
		run := &singleRun{eng: eng, sink: &core.CountingSink{}, agg: agg, tracker: tracker}
		// Serve readers attach only to the measured pass (coalesce is always
		// true for it), never to the -batch sequential baseline; raw
		// workloads get a tracker just for serving.
		if *serveReaders > 0 && coalesce {
			if run.tracker == nil {
				if run.tracker, err = story.NewTracker(story.Config{Grace: grace, MinCardinality: 3}); err != nil {
					return nil, err
				}
			}
			run.bld = serve.NewBuilder(run.tracker)
		}
		engSink := core.EventSink(run.sink)
		switch {
		case run.bld != nil:
			engSink = core.MultiSink{run.sink, run.bld}
		case run.tracker != nil:
			engSink = core.MultiSink{run.sink, run.tracker}
		}
		r := stream.NewReplay(src, eng, engSink)
		r.SetBoundaryHook(func() error {
			if ctx.Err() != nil {
				return stream.ErrStopped
			}
			return nil
		})
		var ld *serve.Load
		if run.bld != nil {
			ld = serve.StartLoad(run.bld.View(), serve.LoadConfig{Readers: *serveReaders, TopK: *serveK, Seed: 1})
		}
		mem := takeMemSnapshot()
		// wall is the whole-replay clock the -wal-compare ratio is built from.
		wallStart := time.Now()
		switch {
		case *batchMode || *decayCompare:
			run.st, err = r.RunBatches(*readBatch, coalesce)
		case *docsMode && mode == stream.DecayRescale:
			// Rescaled decay is batch-structured (threshold epoch units), so
			// the non-coalescing replay still runs through the batch driver.
			run.st, err = r.RunBatches(*readBatch, false)
		default:
			run.st, err = r.Run(*readBatch)
		}
		run.wall = time.Since(wallStart)
		if errors.Is(err, stream.ErrStopped) {
			run.interrupted = true
			if ld != nil {
				ld.Stop()
			}
			return run, nil
		}
		if err != nil {
			return nil, err
		}
		run.allocs, run.bytes = mem.perUpdate(run.st.Updates)
		if run.bld != nil {
			run.bld.Close(uint64(run.st.Ticks))
			run.load = ld.Stop()
		} else if run.tracker != nil {
			run.tracker.Close(uint64(run.st.Ticks))
		}
		return run, nil
	}
	// benchInterrupted reports a signal-drained partial pass: its stats are
	// printed, comparisons and JSON are skipped (a partial snapshot would
	// poison the committed perf trajectory).
	benchInterrupted := func(st fmt.Stringer) error {
		fmt.Println(st)
		fmt.Println("bench: interrupted — partial pass, summary and JSON omitted")
		return nil
	}

	var seq *singleRun
	if *batchMode {
		// Sequential baseline pass for the comparison.
		if seq, err = runOnce(false, benchDecayMode); err != nil {
			return err
		}
		if seq.interrupted {
			return benchInterrupted(seq.st)
		}
	}
	// With -decay-compare the exact-sweep reference pass runs first (both
	// passes epoch-coalesced over the identical workload); the measured pass
	// below is the rescaled one and fills the main result fields.
	var exactRef *singleRun
	if *decayCompare {
		if exactRef, err = runOnce(true, stream.DecayExact); err != nil {
			return err
		}
		if exactRef.interrupted {
			return benchInterrupted(exactRef.st)
		}
	}
	measured, err := runOnce(true, benchDecayMode)
	if err != nil {
		return err
	}
	if measured.interrupted {
		return benchInterrupted(measured.st)
	}

	// With -wal-compare the measured pass above is the durability-off
	// reference; the persisted pass replays the identical workload with the
	// document WAL and periodic background snapshots into a throwaway
	// directory. Determinism makes the comparison honest — the two passes
	// must produce identical story/event outcomes or the ratio measures
	// divergence, not durability cost.
	var walRun *singleRun
	var walStoreStats persist.StoreStats
	if *walCompare {
		dir, err := os.MkdirTemp("", "dyndens-bench-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		pst, err := persist.Open(persist.Config{
			Dir:           dir,
			Fingerprint:   "bench:wal-compare",
			SnapshotEvery: *walEvery,
			Fsync:         *walFsync,
		})
		if err != nil {
			return err
		}
		gen, err := stream.NewDocSynthetic(stream.DocSynthConfig{
			BackgroundEntities: synthCfg.Vertices,
			Stories:            *docStories,
			StorySize:          *docStorySize,
			Docs:               synthCfg.Updates,
			Seed:               synthCfg.Seed,
			BackgroundSkew:     synthCfg.Skew,
		})
		if err != nil {
			return err
		}
		agg, err := stream.NewAggregator(pst.Docs(gen), benchAggCfg(benchDecayMode))
		if err != nil {
			return err
		}
		tracker, err := story.NewTracker(story.Config{MinCardinality: 3, Grace: graceUpdates})
		if err != nil {
			return err
		}
		eng, err := core.New(engCfg)
		if err != nil {
			return err
		}
		walRun = &singleRun{eng: eng, sink: &core.CountingSink{}, agg: agg, tracker: tracker}
		r := stream.NewReplay(agg, eng, core.MultiSink{walRun.sink, tracker})
		capture := func() (*persist.PipelineState, error) {
			ps, cerr := persist.CaptureSingle(eng, agg, tracker)
			if cerr != nil {
				return nil, cerr
			}
			ps.Ticks = uint64(r.Stats().Ticks)
			return ps, nil
		}
		r.SetBoundaryHook(func() error {
			if ctx.Err() != nil {
				return stream.ErrStopped
			}
			if agg.Drained() {
				return pst.MaybeSnapshot(capture)
			}
			return nil
		})
		wallStart := time.Now()
		walRun.st, err = r.RunBatches(*readBatch, false)
		walRun.wall = time.Since(wallStart)
		if errors.Is(err, stream.ErrStopped) {
			pst.Close()
			return benchInterrupted(walRun.st)
		}
		if err != nil {
			pst.Close()
			return err
		}
		if err := pst.Checkpoint(capture); err != nil {
			return err
		}
		tracker.Close(uint64(walRun.st.Ticks))
		walStoreStats = pst.Stats()
		if err := pst.Close(); err != nil {
			return err
		}
		if walRun.st.Updates != measured.st.Updates || walRun.st.Ticks != measured.st.Ticks ||
			walRun.sink.Became != measured.sink.Became || walRun.sink.Ceased != measured.sink.Ceased {
			return fmt.Errorf("bench: WAL-on pass diverged from WAL-off (updates %d vs %d, ticks %d vs %d, became %d vs %d, ceased %d vs %d)",
				walRun.st.Updates, measured.st.Updates, walRun.st.Ticks, measured.st.Ticks,
				walRun.sink.Became, measured.sink.Became, walRun.sink.Ceased, measured.sink.Ceased)
		}
	}

	extra := ""
	if *batchMode {
		extra = " batched"
	}
	header(extra)
	if seq != nil {
		fmt.Printf("sequential: %v\n", seq.st)
	}
	if exactRef != nil {
		fmt.Printf("exact:      %v\n", exactRef.st)
	}
	fmt.Println(measured.st)
	if exactRef != nil {
		// Elapsed-time ratio, not upd/s: the rescaled decay segment processes
		// ~zero per-pair updates, so a throughput ratio would be meaningless.
		fmt.Printf("decay-mode speedup: decay-segment %.2fx, overall %.2fx (rescale vs exact, elapsed time)\n",
			elapsedSpeedup(exactRef.st.DecaySeg.Elapsed, measured.st.DecaySeg.Elapsed),
			elapsedSpeedup(exactRef.st.Elapsed, measured.st.Elapsed))
	}
	if walRun != nil {
		// Wall-clock ratio over the same logical work: the fraction of
		// durability-off throughput the persisted pipeline retains.
		fmt.Printf("wal overhead: on %v vs off %v (%.2fx throughput retained) frames=%d bytes=%d snapshots=%d fsync=%v\n",
			walRun.wall.Round(time.Microsecond), measured.wall.Round(time.Microsecond),
			elapsedSpeedup(measured.wall, walRun.wall),
			walStoreStats.FramesLogged, walStoreStats.BytesLogged, walStoreStats.SnapshotsCut, *walFsync)
	}
	if seq != nil {
		if seq.st.DecaySeg.Batches > 0 {
			fmt.Printf("speedup: decay-segment %.2fx, overall %.2fx (batched vs sequential)\n",
				speedup(measured.st.DecaySeg.UpdatesPerSecond(), seq.st.DecaySeg.UpdatesPerSecond()),
				speedup(measured.st.UpdatesPerSecond(), seq.st.UpdatesPerSecond()))
		} else {
			// Raw-update workloads have no epoch bursts; a 0.00x decay figure
			// would read as a regression rather than an absent segment.
			fmt.Printf("speedup: overall %.2fx (batched vs sequential; workload has no decay segment)\n",
				speedup(measured.st.UpdatesPerSecond(), seq.st.UpdatesPerSecond()))
		}
	}
	fmt.Printf("sink:   became=%d ceased=%d (net output-dense=%d)\n",
		measured.sink.Became, measured.sink.Ceased, measured.eng.OutputDenseCount())
	if measured.tracker != nil && measured.agg != nil {
		printDocBenchSummary(measured.agg, measured.tracker)
	}
	if measured.bld != nil {
		printServeSummary(measured.load, measured.bld.View())
	}
	fmt.Println(engineSummary(measured.eng))
	if *jsonOut != "" {
		result.fillCommon(synthCfg, userCfg, 0, *readBatch)
		result.fillThroughput(measured.st.Updates, measured.st.Elapsed)
		result.fillEngineStats(measured.eng.Stats())
		result.Batched = *batchMode
		result.Ticks = measured.st.Ticks
		result.AllocsPerUpdate, result.BytesPerUpdate = measured.allocs, measured.bytes
		result.Events.Became = measured.sink.Became
		result.Events.Ceased = measured.sink.Ceased
		result.Events.NetOutputDense = measured.eng.OutputDenseCount()
		if seq != nil {
			result.BatchCompare = &batchCompareResult{
				Sequential:     newModeResult(seq.st),
				Batched:        newModeResult(measured.st),
				DecaySpeedup:   speedup(measured.st.DecaySeg.UpdatesPerSecond(), seq.st.DecaySeg.UpdatesPerSecond()),
				OverallSpeedup: speedup(measured.st.UpdatesPerSecond(), seq.st.UpdatesPerSecond()),
			}
		}
		if exactRef != nil {
			result.DecayModeCompare = &decayModeCompareResult{
				Exact:               newModeResult(exactRef.st),
				Rescale:             newModeResult(measured.st),
				DecaySegmentSpeedup: elapsedSpeedup(exactRef.st.DecaySeg.Elapsed, measured.st.DecaySeg.Elapsed),
				OverallSpeedup:      elapsedSpeedup(exactRef.st.Elapsed, measured.st.Elapsed),
			}
		}
		if walRun != nil {
			result.WALOverhead = &walOverheadResult{
				OffWallNs: measured.wall.Nanoseconds(),
				OnWallNs:  walRun.wall.Nanoseconds(),
				Ratio:     elapsedSpeedup(measured.wall, walRun.wall),
				Fsync:     *walFsync,
				Frames:    walStoreStats.FramesLogged,
				Bytes:     walStoreStats.BytesLogged,
				Snapshots: walStoreStats.SnapshotsCut,
			}
		}
		if measured.bld != nil {
			result.Serve = newServeBenchResult(measured.load, measured.bld.View())
		}
		return finishJSON(measured.agg, measured.tracker)
	}
	return nil
}

// parseScaleList parses the -scale flag: a comma-separated list of shard
// counts with duplicates dropped. 0 (the single-engine reference every ratio
// is anchored to) must be present.
func parseScaleList(s string) ([]int, error) {
	var ks []int
	seen := make(map[int]bool)
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, err := strconv.Atoi(tok)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("bench: bad -scale entry %q (want comma-separated shard counts ≥ 0)", tok)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("bench: -scale list is empty")
	}
	if !seen[0] {
		return nil, fmt.Errorf("bench: -scale list must include 0 (the single-engine reference point)")
	}
	return ks, nil
}

// runBenchScale replays the identical synthetic workload once per requested
// point — the single engine for count 0, the sharded engine in both scoped
// and mirror delivery for each count > 0 — printing one line per point and
// emitting the whole curve in the JSON Scaling block. With batched set every
// point is driven through epoch coalescing (ProcessBatch / whole-epoch shard
// shipping) instead of per-update delivery. The event counters of every
// point must agree (the delivery policy is an optimization, not an
// approximation); a mismatch fails the run.
func runBenchScale(ctx context.Context, ks []int, synthCfg stream.SynthConfig, engCfg core.Config, readBatch int, batched bool, jsonOut string) error {
	// A signal drains the current point to its next batch boundary and abandons
	// the curve — a partial curve never reaches the JSON output.
	stopHook := func() error {
		if ctx.Err() != nil {
			return stream.ErrStopped
		}
		return nil
	}
	runPoint := func(k int, overlap shard.Overlap) (scaleEntry, core.Stats, error) {
		e := scaleEntry{Shards: k, Batched: batched}
		src, err := stream.NewSynthetic(synthCfg)
		if err != nil {
			return e, core.Stats{}, err
		}
		sink := &core.CountingSink{}
		if k == 0 {
			eng, err := core.New(engCfg)
			if err != nil {
				return e, core.Stats{}, err
			}
			r := stream.NewReplay(src, eng, sink)
			r.SetBoundaryHook(stopHook)
			var st stream.ReplayStats
			if batched {
				st, err = r.RunBatches(readBatch, true)
			} else {
				st, err = r.Run(readBatch)
			}
			if err != nil {
				return e, core.Stats{}, err
			}
			e.UpdatesPerSecond = st.UpdatesPerSecond()
			e.ElapsedNs = st.Elapsed.Nanoseconds()
			e.Became, e.Ceased, e.NetOutputDense = sink.Became, sink.Ceased, eng.OutputDenseCount()
			return e, eng.Stats(), nil
		}
		e.Overlap = overlap.String()
		se, err := shard.New(shard.Config{Shards: k, Engine: engCfg, Overlap: overlap})
		if err != nil {
			return e, core.Stats{}, err
		}
		defer se.Close()
		r := stream.NewShardReplay(src, se, sink)
		r.SetBoundaryHook(stopHook)
		var st stream.ShardReplayStats
		if batched {
			st, err = r.RunBatches(readBatch, true)
		} else {
			st, err = r.Run(readBatch)
		}
		if err != nil {
			return e, core.Stats{}, err
		}
		stats := se.Stats()
		e.UpdatesPerSecond = st.UpdatesPerSecond()
		e.ElapsedNs = st.Wall.Nanoseconds()
		e.MeanDeliveryFraction = st.MeanDeliveryFraction()
		e.ParallelEfficiency = st.ParallelEfficiency()
		for _, load := range stats.Loads {
			e.PerShardBusyNs = append(e.PerShardBusyNs, load.Busy.Nanoseconds())
			e.PerShardDelivered = append(e.PerShardDelivered, load.Delivered)
			e.PerShardApplied = append(e.PerShardApplied, load.Applied)
		}
		e.Became, e.Ceased, e.NetOutputDense = sink.Became, sink.Ceased, se.OutputDenseCount()
		return e, stats.Aggregate, nil
	}

	mode := "sequential"
	if batched {
		mode = "batched"
	}
	fmt.Printf("bench -scale: %d vertices, %d updates (seed=%d skew=%g neg=%g mean=%g) | T=%g Nmax=%d batch=%d mode=%s\n",
		synthCfg.Vertices, synthCfg.Updates, synthCfg.Seed, synthCfg.Skew, synthCfg.NegativeFraction, synthCfg.MeanDelta,
		engCfg.WithDefaults().T, engCfg.WithDefaults().Nmax, readBatch, mode)

	var sc scalingResult
	var single *scaleEntry
	var singleStats core.Stats
	for _, k := range ks {
		overlaps := []shard.Overlap{shard.OverlapScoped}
		if k > 0 {
			overlaps = []shard.Overlap{shard.OverlapScoped, shard.OverlapMirror}
		}
		for _, ov := range overlaps {
			e, stats, err := runPoint(k, ov)
			if errors.Is(err, stream.ErrStopped) {
				fmt.Println("bench: interrupted — partial scaling curve, JSON omitted")
				return nil
			}
			if err != nil {
				return err
			}
			label := "single"
			if k > 0 {
				label = fmt.Sprintf("K=%d %s", k, ov)
			}
			if k == 0 {
				fmt.Printf("%-12s %10.0f upd/s  became=%d ceased=%d net=%d\n",
					label, e.UpdatesPerSecond, e.Became, e.Ceased, e.NetOutputDense)
				singleStats = stats
			} else {
				fmt.Printf("%-12s %10.0f upd/s  delivery=%.2f eff=%.0f%%  became=%d ceased=%d net=%d\n",
					label, e.UpdatesPerSecond, e.MeanDeliveryFraction, 100*e.ParallelEfficiency,
					e.Became, e.Ceased, e.NetOutputDense)
			}
			sc.Entries = append(sc.Entries, e)
			if k == 0 {
				point := e
				single = &point
			}
			first := sc.Entries[0]
			if e.Became != first.Became || e.Ceased != first.Ceased || e.NetOutputDense != first.NetOutputDense {
				return fmt.Errorf("bench: scale point %s diverged from %d/%d/%d (became/ceased/net) — delivery policies must be output-identical",
					label, first.Became, first.Ceased, first.NetOutputDense)
			}
		}
	}

	find := func(k int, ov string) *scaleEntry {
		for i := range sc.Entries {
			if sc.Entries[i].Shards == k && sc.Entries[i].Overlap == ov {
				return &sc.Entries[i]
			}
		}
		return nil
	}
	if s4 := find(4, "scoped"); s4 != nil {
		if m4 := find(4, "mirror"); m4 != nil {
			sc.ScopedK4VsMirrorK4 = speedup(s4.UpdatesPerSecond, m4.UpdatesPerSecond)
			fmt.Printf("scoped K=4 vs mirror K=4: %.2fx\n", sc.ScopedK4VsMirrorK4)
		}
		if single != nil {
			sc.ScopedK4VsSingle = speedup(s4.UpdatesPerSecond, single.UpdatesPerSecond)
			fmt.Printf("scoped K=4 vs single:     %.2fx\n", sc.ScopedK4VsSingle)
		}
	}

	if jsonOut == "" {
		return nil
	}
	var result benchResult
	result.fillCommon(synthCfg, engCfg.WithDefaults(), 0, readBatch)
	result.Batched = batched
	result.fillThroughput(synthCfg.Updates, time.Duration(single.ElapsedNs))
	result.fillEngineStats(singleStats)
	result.Events.Became = single.Became
	result.Events.Ceased = single.Ceased
	result.Events.NetOutputDense = single.NetOutputDense
	result.Scaling = &sc
	return result.writeJSON(jsonOut)
}

// printDocBenchSummary prints the -docs mode aggregation and story counters.
func printDocBenchSummary(agg *stream.Aggregator, tracker *story.Tracker) {
	fmt.Println(agg.Stats())
	st := tracker.Stats()
	fmt.Printf("story:  born=%d split=%d updated=%d merged=%d died=%d | live=%d fading=%d\n",
		st.Born, st.Split, st.Updated, st.Merged, st.Died, st.Live, st.Fading)
}
