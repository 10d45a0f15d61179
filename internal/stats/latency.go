package stats

import "slices"

// TailPoints are the percentiles reported in the paper's tail-latency
// figures (Figs. 3, 8, 12).
var TailPoints = []float64{50, 90, 99, 99.9, 99.99}

// LatencyRecorder accumulates per-request latencies (virtual nanoseconds)
// and produces tail distributions. It stores raw samples: the experiment
// scales are small enough that exact percentiles are affordable, and
// exactness matters at p99.99.
type LatencyRecorder struct {
	// samples stays in insertion order for the recorder's lifetime —
	// Samples() and everything persisted from it (checkpoint envelopes)
	// must not depend on whether a percentile was queried first.
	samples []int64
	// sorted is a lazily-built sorted copy serving percentile queries,
	// invalidated by Record/Merge.
	sorted []int64
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
	l.sorted = nil
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

func (l *LatencyRecorder) sort() []int64 {
	if l.sorted == nil {
		// slices.Sort specializes on int64 — no per-comparison closure call.
		// Sorting a copy keeps l.samples in insertion order: an earlier
		// version sorted in place, silently reordering what Samples()
		// exposed (and the checkpoint layer persisted) depending on whether
		// a percentile had been queried first.
		l.sorted = append(make([]int64, 0, len(l.samples)), l.samples...)
		slices.Sort(l.sorted)
	}
	return l.sorted
}

// Percentile returns the p-th percentile latency in nanoseconds.
// It returns 0 when no samples have been recorded.
func (l *LatencyRecorder) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	s := l.sort()
	if len(s) == 1 {
		return float64(s[0])
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

// Tail returns the latencies at each of TailPoints.
func (l *LatencyRecorder) Tail() []float64 {
	out := make([]float64, len(TailPoints))
	for i, p := range TailPoints {
		out[i] = l.Percentile(p)
	}
	return out
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
	l.sorted = nil
}
