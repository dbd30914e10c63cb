package main

import (
	"math"
	"math/bits"
	"sort"
)

// A hist is a log-linear latency histogram over nanoseconds: values below
// 2^histSubBits are exact, larger ones fall into histSub buckets per power of
// two (bucket width ≤ 0.8% of the value). Callers record into one hist per
// segment, so a run's memory is fixed and pointer-free however many
// operations it completes: per-sample slices would grow the live heap to tens
// of megabytes and slow the collector's pacing, hiding GC cost the program
// under test really pays.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps recorded values at 2^(histMaxExp+histSubBits+1) ns,
	// about 18 minutes; longer latencies clamp into the last bucket.
	histMaxExp  = 32
	histBuckets = (histMaxExp + 2) * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(uint64(v)>>uint(e)) - histSub
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it so the result moves continuously rather
// than in bucket-width steps. An empty hist yields 0.
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
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// tailQuantile is the highest percentile, at most the 99th, that still has
// ten samples beyond it among n; with fewer than twenty samples no tail is
// supported and the median is returned.
func tailQuantile(n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// quantileOf returns the q-quantile of vals (linear interpolation between
// order statistics); vals is sorted in place.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	i := int(pos)
	if i >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	return vals[i] + (pos-float64(i))*(vals[i+1]-vals[i])
}

// A band is one metric's value over a run's segments: the median is the
// reported value, p10 and p90 are the noise band printed beside it.
type band struct {
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	N      int     `json:"segments"`
}

func bandOf(perSegment []float64) band {
	v := append([]float64(nil), perSegment...)
	return band{
		Median: quantileOf(v, 0.5),
		P10:    quantileOf(v, 0.1),
		P90:    quantileOf(v, 0.9),
		N:      len(v),
	}
}
