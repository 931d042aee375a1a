package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram: each power-of-two range of
// nanoseconds is split into histSub equal buckets, so a bucket is at most
// 1/histSub of its value wide. Percentiles interpolate linearly inside the
// bucket. Memory is fixed, so a run can record millions of samples.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
	max    time.Duration
	sum    time.Duration
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

// histBounds returns the [lo, hi) nanosecond range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return float64(m << uint(exp)), float64((m + 1) << uint(exp))
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			if hi < lo {
				hi = lo
			}
			return lo + (rank-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
