package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer identifies a traced module boundary. The names are the repository's
// package names and double as metric prefixes.
type layer uint8

const (
	layerParse     layer = iota // stream sources: text → items
	layerAggregate              // stream.Aggregator: documents → update batches
	layerCore                   // core.Engine, as driven by stream.Replay
	layerStory                  // story.Tracker as the engine's sink
	layerServe                  // serve.Builder (with its tracker) as the engine's sink
	layerLog                    // persist document log (WAL append, replay decode)
	layerCapture                // persist snapshot capture at a boundary
	numLayers
)

var layerNames = [numLayers]string{
	"stream.parse", "stream.aggregate", "core", "story", "serve.publish", "persist.log", "persist.capture",
}

// span is one recorded call into a layer. Times are nanoseconds since the
// tracer's origin; Parent indexes the enclosing retained span (-1 for none).
type span struct {
	Layer      layer
	Parent     int32
	Unit       uint32
	Start, End int64
}

type frame struct {
	layer layer
	start time.Time
	child time.Duration
	idx   int32
}

// tracer records spans around the benchmark's calls into each layer. Self
// time (a span minus the time its children cover) is accumulated for every
// span; the spans themselves are retained for a sample of input units — those
// whose id is a multiple of sampleEvery, up to maxSpans — and written out at
// the end. All spans of one input unit (a document, or a read batch of edge
// updates) share its id. A nil *tracer records nothing.
type tracer struct {
	origin      time.Time
	stack       []frame
	self        [numLayers]time.Duration
	calls       [numLayers]uint64
	unit        uint32
	spans       []span
	maxSpans    int
	sampleEvery uint32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), maxSpans: 200_000, sampleEvery: 32}
}

// setUnit marks the input unit subsequent spans belong to.
func (t *tracer) setUnit(u uint32) {
	if t != nil {
		t.unit = u
	}
}

func (t *tracer) begin(l layer, now time.Time) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if t.unit%t.sampleEvery == 0 && len(t.spans) < t.maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Layer: l, Parent: parent, Unit: t.unit, Start: int64(now.Sub(t.origin))})
	}
	t.stack = append(t.stack, frame{layer: l, start: now, idx: idx})
}

// end closes the innermost span and returns its self time.
func (t *tracer) end(now time.Time) time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now.Sub(f.start)
	t.self[f.layer] += d - f.child
	t.calls[f.layer]++
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = int64(now.Sub(t.origin))
	}
	return d - f.child
}

// open reports whether the innermost open span is in layer l.
func (t *tracer) open(l layer) bool {
	return t != nil && len(t.stack) > 0 && t.stack[len(t.stack)-1].layer == l
}

// reset drops spans left open by an aborted pass.
func (t *tracer) reset() {
	if t != nil {
		t.stack = t.stack[:0]
	}
}

// writeChrome writes the retained spans in the Chrome trace-event format
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[")
	sep := ""
	for i, s := range t.spans {
		if s.End == 0 {
			continue // still open when the run stopped
		}
		fmt.Fprintf(w, "%s\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%d,\"id\":%d,\"parent\":%d}}",
			sep, layerNames[s.Layer], float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Unit, i, s.Parent)
		sep = ","
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
