package stats

import (
	"math/bits"
	"slices"
)

// TailPoints are the percentiles reported in the paper's tail-latency
// figures (Figs. 3, 8, 12).
var TailPoints = []float64{50, 90, 99, 99.9, 99.99}

// LatencyRecorder accumulates per-request latencies (virtual nanoseconds)
// and produces tail distributions. It stores raw samples, so every
// percentile is exact, and exactness matters at p99.99. A query does not
// sort them: it copies them into a scratch buffer and partitions that
// only until the order statistics each percentile reads are in place.
type LatencyRecorder struct {
	// samples stays in insertion order for the recorder's lifetime —
	// Samples() and everything persisted from it (checkpoint envelopes)
	// must not depend on whether a percentile was queried first.
	samples []int64
}

// NewLatencyRecorder returns a recorder with capacity hint n.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]int64, 0, n)}
}

// NewLatencyRecorderFrom returns a recorder whose observations are
// samples, in order. It takes ownership of samples: the caller must not
// use the slice afterwards. Samples() still returns a copy.
func NewLatencyRecorderFrom(samples []int64) *LatencyRecorder {
	return &LatencyRecorder{samples: samples}
}

// Record adds one latency observation.
func (l *LatencyRecorder) Record(ns int64) {
	l.samples = append(l.samples, ns)
}

// Count reports the number of recorded observations.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the mean latency in nanoseconds, or 0 if empty.
func (l *LatencyRecorder) Mean() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range l.samples {
		s += float64(v)
	}
	return s / float64(len(l.samples))
}

// Percentile returns the p-th percentile latency in nanoseconds.
// It returns 0 when no samples have been recorded.
func (l *LatencyRecorder) Percentile(p float64) float64 {
	return percentiles([]float64{p}, l)[0]
}

// Tail returns the latencies at each of TailPoints.
func (l *LatencyRecorder) Tail() []float64 { return MergedTail(l) }

// MergedTail returns the latencies at each of TailPoints over the samples
// of all recs taken together.
func MergedTail(recs ...*LatencyRecorder) []float64 {
	return percentiles(TailPoints, recs...)
}

// percentiles returns the p-th percentile, for each p in ps, of the
// samples of all recs taken together. Each is interpolated linearly
// between the two order statistics around rank p/100·(n−1). Nil and empty
// recorders contribute nothing, and with no samples every percentile is
// 0. The recorders are left as they were.
//
// The samples are copied into one buffer that is partitioned only until
// the order statistics the interpolation reads sit where sorting would
// put them: expected O(n) work for a handful of points, not a full sort.
func percentiles(ps []float64, recs ...*LatencyRecorder) []float64 {
	n := 0
	for _, r := range recs {
		if r != nil {
			n += len(r.samples)
		}
	}
	out := make([]float64, len(ps))
	if n == 0 {
		return out
	}
	buf := make([]int64, 0, n)
	for _, r := range recs {
		if r != nil {
			buf = append(buf, r.samples...)
		}
	}
	if n == 1 {
		for i := range out {
			out[i] = float64(buf[0])
		}
		return out
	}
	ranks := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		if lo, _ := rankOf(p, n); lo+1 < n {
			ranks = append(ranks, lo, lo+1)
		} else {
			ranks = append(ranks, n-1)
		}
	}
	slices.Sort(ranks)
	selectRanks(buf, 0, n, slices.Compact(ranks), depthLimit(n))
	for i, p := range ps {
		lo, frac := rankOf(p, n)
		if lo+1 >= n {
			out[i] = float64(buf[n-1])
			continue
		}
		// The explicit conversions keep the compiler from fusing the
		// products and the sum into one FMA on architectures that have
		// it, so every architecture rounds as amd64 does.
		out[i] = float64(float64(buf[lo])*(1-frac)) + float64(float64(buf[lo+1])*frac)
	}
	return out
}

// rankOf returns the order statistic at or below the p-th percentile of
// n > 1 samples and the weight of the one above it.
func rankOf(p float64, n int) (lo int, frac float64) {
	rank := float64(p / 100 * float64(n-1))
	lo = int(rank)
	return lo, rank - float64(lo)
}

// depthLimit is the number of partitions selectRanks may spend on n
// samples before it sorts what is left: 2·⌈log₂ n⌉.
func depthLimit(n int) int { return 2 * bits.Len(uint(n-1)) }

// selectRanks reorders s[lo:hi] so that s[k], for every k in ranks, holds
// the value it would hold were s[lo:hi] sorted. ranks is sorted and
// unique; ranks outside [lo, hi) are ignored. It is a quickselect that
// follows every wanted rank: a three-way partition around a median-of-3
// pivot fixes the pivot's run of equal values, and only the sides that
// still hold a wanted rank are partitioned further. Once depth partitions
// have been spent on a range, it is sorted, which bounds an adversarial
// input at O(n log n). It reports how many ranges it sorted for that.
func selectRanks(s []int64, lo, hi int, ranks []int, depth int) (fellBack int) {
	for len(ranks) > 0 {
		if hi-lo <= 12 {
			slices.Sort(s[lo:hi])
			return fellBack
		}
		if depth == 0 {
			slices.Sort(s[lo:hi])
			return fellBack + 1
		}
		depth--
		lt, gt := partition3(s[lo:hi], medianOf3(s[lo], s[lo+(hi-lo)/2], s[hi-1]))
		lt, gt = lo+lt, lo+gt
		left, _ := slices.BinarySearch(ranks, lt)
		right, _ := slices.BinarySearch(ranks, gt)
		if left > 0 {
			fellBack += selectRanks(s, lo, lt, ranks[:left], depth)
		}
		lo, ranks = gt, ranks[right:]
	}
	return fellBack
}

// partition3 reorders s around pivot into s[:lt] < pivot,
// s[lt:gt] == pivot and s[gt:] > pivot. Each of its two passes swaps
// unconditionally and only advances a bound by the comparison, so random
// input costs it no branch mispredictions.
func partition3(s []int64, pivot int64) (lt, gt int) {
	for i, v := range s {
		s[i] = s[lt]
		s[lt] = v
		lt += b2i(v < pivot)
	}
	gt = lt
	for i, v := range s[lt:] {
		i += lt
		s[i] = s[gt]
		s[gt] = v
		gt += b2i(v == pivot)
	}
	return lt, gt
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc, not
// a branch.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

func medianOf3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// Samples returns a copy of the raw observations in insertion order. The
// order is stable regardless of percentile queries, so persisted sample
// sets are byte-identical however the recorder was used.
func (l *LatencyRecorder) Samples() []int64 {
	return append(make([]int64, 0, len(l.samples)), l.samples...)
}

// Merge appends all observations from other.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	l.samples = append(l.samples, other.samples...)
}
