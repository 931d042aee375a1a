package main

import (
	"errors"
	"io"
	"runtime"
	"time"

	"dyndens/internal/core"
	"dyndens/internal/stream"
)

// The wrappers in this file sit between the layers of the pipeline. They
// forward every call unchanged and, around it, stamp input items for the
// latency metric and (when tracing) record a span per call. Nothing here
// alters what the program computes.

var errPerUpdate = errors.New("perfbench: this source is driven through NextBatch only")

// probe is the measurement state shared by the wrappers of one pipeline.
type probe struct {
	tr *tracer

	// pending holds the start stamps of input items handed to the pipeline
	// but not yet visible; complete turns them into latency samples of the
	// current segment.
	pending []time.Time
	lat     hist

	docs  int       // documents handed to the pipeline by docSource
	sched *schedule // open-loop arrival schedule, nil for a closed loop
	// behindMax is how late the open-loop writer took a document, at worst.
	behindMax time.Duration

	unitLat  hist // core self time per input batch
	epochLat hist // core self time per threshold (epoch) unit
	decay    bool // the batch in flight is an epoch unit
}

// complete records every pending item as visible at now.
func (p *probe) complete(now time.Time) {
	for _, t := range p.pending {
		p.lat.add(now.Sub(t))
	}
	p.pending = p.pending[:0]
}

// endSegment closes a measured segment — a pass, or a window of a
// session's live phase — of items input items over dur.
func (p *probe) endSegment(r *result, items int, dur time.Duration) {
	r.segs = append(r.segs, segment{
		rate: float64(items) / dur.Seconds(),
		p50:  p.lat.us(0.50),
		p99:  p.lat.us(0.99),
	})
	r.lat.merge(&p.lat)
	p.lat = hist{}
}

// endCore closes the core span opened when the batch was handed to the
// engine; the replay's boundary hook calls it first thing.
func (p *probe) endCore(now time.Time) {
	if !p.tr.open(layerCore) {
		return
	}
	self := p.tr.end(now)
	if p.decay {
		p.epochLat.add(self)
	} else {
		p.unitLat.add(self)
	}
}

// schedule is the open-loop arrival schedule: document i is due at
// start + i·interval.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s *schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(s.interval)))
}

// waitUntil blocks until t. Timer sleeps overshoot by about a millisecond on
// Linux, which would swamp sub-millisecond latencies, so the last stretch is
// a spin on the clock. The spin yields the processor on every turn, as a
// writer blocked on its input would, so the garbage collector and the
// background snapshot writer can use the idle time.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// edgeSource chunks an edge-update text source into read batches of n
// updates — what stream.AsBatchSource does — while stamping each update as it
// is read. One clock read per update serves both the stamp and the parse
// span.
type edgeSource struct {
	src     stream.UpdateSource
	n       int
	p       *probe
	buf     []stream.Update
	batches uint32
	done    bool
}

func (s *edgeSource) Next() (stream.Update, error) { return stream.Update{}, errPerUpdate }

func (s *edgeSource) NextBatch() (stream.Batch, error) {
	if s.done {
		return stream.Batch{}, io.EOF
	}
	p := s.p
	s.batches++
	p.tr.setUnit(s.batches)
	s.buf = s.buf[:0]
	t := time.Now()
	for len(s.buf) < s.n {
		p.tr.begin(layerParse, t)
		u, err := s.src.Next()
		t2 := time.Now()
		p.tr.end(t2)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return stream.Batch{}, err
			}
			s.done = true
			break
		}
		p.pending = append(p.pending, t)
		s.buf = append(s.buf, u)
		t = t2
	}
	if len(s.buf) == 0 {
		return stream.Batch{}, io.EOF
	}
	p.decay = false
	p.tr.begin(layerCore, t)
	return stream.Batch{Updates: s.buf}, nil
}

// docSource wraps the document text parser. It stamps each document as it is
// handed to the pipeline — or, on an open-loop schedule, with the time it was
// due — and counts documents for unit ids and the schedule.
type docSource struct {
	src stream.DocumentSource
	p   *probe
}

func (s *docSource) Next() (stream.Document, error) {
	p := s.p
	now := time.Now()
	stamp := now
	if p.sched != nil {
		stamp = p.sched.due(p.docs)
		if late := now.Sub(stamp); late > p.behindMax {
			p.behindMax = late
		}
	}
	p.tr.begin(layerParse, now)
	d, err := s.src.Next()
	if p.tr != nil {
		p.tr.end(time.Now())
	}
	if err != nil {
		return d, err
	}
	p.pending = append(p.pending, stamp)
	p.docs++
	return d, nil
}

// logSource wraps the persist document log (the recovery chain): replayed
// WAL frames are decoded there, live documents appended to the WAL.
type logSource struct {
	src    stream.DocumentSource
	p      *probe
	handed int
}

func (s *logSource) Next() (stream.Document, error) {
	tr := s.p.tr
	if tr != nil {
		tr.begin(layerLog, time.Now())
	}
	d, err := s.src.Next()
	if tr != nil {
		tr.end(time.Now())
	}
	if err == nil {
		s.handed++
	}
	return d, err
}

// aggSource wraps the co-occurrence aggregator as the replay's batch source.
type aggSource struct {
	agg *stream.Aggregator
	p   *probe
}

func (s *aggSource) Next() (stream.Update, error) { return stream.Update{}, errPerUpdate }

func (s *aggSource) NextBatch() (stream.Batch, error) {
	p := s.p
	if p.tr == nil {
		b, err := s.agg.NextBatch()
		p.decay = b.Decay
		return b, err
	}
	unit := p.docs // the document the aggregator pulls next
	if !s.agg.Drained() {
		unit-- // still handing out the last pulled document's groups
	}
	p.tr.setUnit(uint32(unit))
	p.tr.begin(layerAggregate, time.Now())
	b, err := s.agg.NextBatch()
	now := time.Now()
	p.tr.end(now)
	if err != nil {
		return b, err
	}
	p.decay = b.Decay
	p.tr.begin(layerCore, now)
	return b, nil
}

// sink wraps the engine's event sink. It counts events and boundaries for the
// output digest and, when tracing, records the sink's spans under layer l.
type sink struct {
	inner core.EventSink
	bound core.UpdateBoundarySink
	l     layer
	p     *probe

	became, ceased, boundaries uint64
}

func newSink(inner core.EventSink, l layer, p *probe) *sink {
	b, _ := inner.(core.UpdateBoundarySink)
	return &sink{inner: inner, bound: b, l: l, p: p}
}

func (s *sink) Emit(ev core.Event) {
	if ev.Kind == core.BecameOutputDense {
		s.became++
	} else {
		s.ceased++
	}
	tr := s.p.tr
	if tr == nil {
		s.inner.Emit(ev)
		return
	}
	tr.begin(s.l, time.Now())
	s.inner.Emit(ev)
	tr.end(time.Now())
}

func (s *sink) EndUpdate() {
	s.boundaries++
	if s.bound == nil {
		return
	}
	tr := s.p.tr
	if tr == nil {
		s.bound.EndUpdate()
		return
	}
	tr.begin(s.l, time.Now())
	s.bound.EndUpdate()
	tr.end(time.Now())
}

// RetainsSets forwards the inner sink's set-ownership contract, so wrapping
// does not change whether the engine clones event sets.
func (s *sink) RetainsSets() bool { return core.SinkRetainsSets(s.inner) }
