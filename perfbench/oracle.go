package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"dyndens/internal/baseline/brute"
	"dyndens/internal/core"
	"dyndens/internal/density"
	"dyndens/internal/graph"
	"dyndens/internal/vset"
)

// indexCheck runs Engine.ValidateIndex. Its stored-score comparison uses an
// absolute tolerance of 1e-6, but under rescaled decay the index stores
// normalized scores (real score / λ), which grow toward 1e150 before the
// aggregator renormalizes; plain float rounding then exceeds 1e-6 and
// ValidateIndex reports "stored score drift" although the relative error is
// about 1e-16. That is a defect of ValidateIndex, not of the index. When it
// is the only complaint — the structural check runs first and passed — the
// per-subgraph checks are repeated from Engine.ExportState with the
// tolerance scaled to the score, max(1e-6, 1e-9·|score|), and the error
// names both findings.
func indexCheck(eng *core.Engine) error {
	msg := eng.ValidateIndex()
	if msg == "" {
		return nil
	}
	if !strings.HasPrefix(msg, "stored score drift for ") {
		return errors.New(msg)
	}
	g, th := eng.Graph(), eng.Thresholds()
	var maxScore float64
	for _, de := range eng.ExportState().Dense {
		want := g.Score(de.Set)
		if d := math.Abs(de.Score - want); d > max(1e-6, 1e-9*math.Abs(want)) {
			return fmt.Errorf("%s, relative drift %.3g", msg, d/math.Abs(want))
		}
		if !th.IsDense(de.Score, de.Set.Len()) {
			return fmt.Errorf("indexed subgraph is not dense: %s", de.Set)
		}
		maxScore = max(maxScore, math.Abs(want))
	}
	return &knownDefect{fmt.Sprintf("ValidateIndex: %q at normalized scores up to %.3g; all relative drifts ≤ 1e-9", msg, maxScore)}
}

// knownDefect is a check outcome that is not a failure of the checked
// output but a defect of the checking function; it is reported, not counted.
type knownDefect struct{ msg string }

func (k *knownDefect) Error() string { return k.msg }

// oracleCheck compares the engine's output-dense keys with
// brute.EnumerateConnected on the engine's final graph, at the engine's
// current threshold — normalized in rescale mode, like the graph's weights.
// The enumeration runs on denseCandidates(graph), which yields exactly the
// same subgraphs at a fraction of the cost. A subgraph whose density is
// within float rounding of the threshold may fall on either side, so only
// differences beyond 1e-9 relative count.
func oracleCheck(eng *core.Engine) error {
	cfg := eng.Config()
	g := eng.Graph()
	t := eng.Thresholds().T
	want := brute.EnumerateConnected(denseCandidates(g, cfg.Measure, t, cfg.Nmax), brute.Params{Measure: cfg.Measure, T: t, Nmax: cfg.Nmax})
	wantKeys := make(map[string]vset.Set, len(want))
	for _, w := range want {
		wantKeys[w.Set.Key()] = w.Set
	}
	gotKeys := make(map[string]vset.Set)
	for _, sg := range eng.OutputDense() {
		gotKeys[sg.Set.Key()] = sg.Set
	}
	borderline := func(s vset.Set) bool {
		d := density.Density(cfg.Measure, g.Score(s), s.Len())
		return math.Abs(d-t) <= 1e-9*t
	}
	var missing, extra []string
	for k, s := range wantKeys {
		if _, ok := gotKeys[k]; !ok && !borderline(s) {
			missing = append(missing, k)
		}
	}
	for k, s := range gotKeys {
		if _, ok := wantKeys[k]; !ok && !borderline(s) {
			extra = append(extra, k)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		slices.Sort(missing)
		slices.Sort(extra)
		return fmt.Errorf("output-dense set differs from brute.EnumerateConnected: missing %v, extra %v (of %d expected)",
			head(missing), head(extra), len(want))
	}
	return nil
}

func head(s []string) []string {
	if len(s) > 5 {
		return s[:5]
	}
	return s
}

// denseCandidates returns the subgraph of g induced by the vertices that can
// belong to a subgraph of at most nmax vertices with density ≥ t. Brute-force
// enumeration on the whole final graph takes seconds and hundreds of
// megabytes, nearly all of it spent on connected sets around background hubs
// that are nowhere near dense.
//
// The bound: if C has n vertices and v ∈ C, then score(C) = score(C∖v) +
// w(v, C∖v). score(C∖v) is at most the sum of the C(n−1, 2) heaviest edges
// of the graph, and w(v, C∖v) at most the sum of v's n−1 heaviest edges, so
// v is kept only if for some n that sum reaches S(n)·t. Weights are never
// negative. Every vertex of every dense C passes, and a set's score and
// connectivity only depend on the edges inside it, so enumerating the induced
// subgraph yields exactly the subgraphs enumerating g does. Pruning repeats
// on the induced subgraph until nothing changes.
func denseCandidates(g *graph.Graph, m density.Measure, t float64, nmax int) *graph.Graph {
	keep := make(map[graph.Vertex]bool)
	for _, v := range g.Vertices() {
		keep[v] = true
	}
	for {
		var weights []float64
		g.Edges(func(u, v graph.Vertex, w float64) {
			if keep[u] && keep[v] {
				weights = append(weights, w)
			}
		})
		slices.Sort(weights)
		slices.Reverse(weights)
		// heaviest[k] bounds the score of any k-vertex set.
		heaviest := make([]float64, nmax)
		for k := 2; k < nmax; k++ {
			for i := 0; i < k*(k-1)/2 && i < len(weights); i++ {
				heaviest[k] += weights[i]
			}
		}
		removed := false
		var incident []float64
		for v := range keep {
			incident = incident[:0]
			g.Neighbors(v, func(u graph.Vertex, w float64) {
				if keep[u] {
					incident = append(incident, w)
				}
			})
			slices.Sort(incident)
			slices.Reverse(incident)
			ok := false
			top := 0.0
			for n := 2; n <= nmax && !ok; n++ {
				if n-2 < len(incident) {
					top += incident[n-2]
				}
				need := m.S(n) * (t - 1e-12) // brute's own tolerance
				ok = top+heaviest[n-1] >= need*(1-1e-9)
			}
			if !ok {
				delete(keep, v)
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	sub := graph.New()
	g.Edges(func(u, v graph.Vertex, w float64) {
		if keep[u] && keep[v] {
			sub.SetWeight(u, v, w)
		}
	})
	return sub
}
