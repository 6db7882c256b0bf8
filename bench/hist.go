package main

import "math/bits"

// hist is the benchmark's own latency histogram: log-linear buckets, 32
// per octave, so a bucket is at most 3.2 % wide and an interpolated
// quantile is off by less than that. (obs.Histogram has one bucket per
// octave — a factor of two — which is too coarse to bound a regression
// by 15 %.) A hist belongs to one goroutine; merge combines them.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64-histSubBits)*histSub + histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>uint(shift))&(histSub-1)
}

// histBounds returns the lower edge and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
	h.sum += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile (0 < q < 1), interpolated linearly
// inside its bucket so that two runs whose medians fall in one bucket
// still report the values they measured, not the bucket edge.
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
