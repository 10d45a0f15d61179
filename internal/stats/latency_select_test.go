package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPercentile is the percentile path LatencyRecorder had before
// percentiles were selected: copy the samples, sort the copy, and
// interpolate between the two order statistics around the rank. It stays
// here as the reference the selection kernel must match bit for bit.
func refPercentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	return float64(float64(sorted[lo])*(1-frac)) + float64(float64(sorted[lo+1])*frac)
}

// refMerged is the reference over several recorders taken together: every
// sample of every non-nil recorder, sorted once.
func refMerged(recs []*LatencyRecorder, ps []float64) []float64 {
	var all []int64
	for _, r := range recs {
		if r != nil {
			all = append(all, r.Samples()...)
		}
	}
	slices.Sort(all)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = refPercentile(all, p)
	}
	return out
}

// selectPoints are the percentiles every differential check reads: the
// paper's tail points and both ends.
var selectPoints = append([]float64{0}, append(slices.Clone(TailPoints), 100)...)

// sameBits fails t unless got and want are the same float64 bit patterns.
func sameBits(t testing.TB, what string, ps, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: p%v = %v (%#x), reference %v (%#x)", what, ps[i],
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAgainstRef compares one recorder's Percentile and Tail, and the
// merged path over it alone, with the sorted reference. It also checks
// that no query reordered the recorder's samples.
func checkAgainstRef(t *testing.T, what string, samples []int64) {
	t.Helper()
	l := NewLatencyRecorderFrom(slices.Clone(samples))
	want := refMerged([]*LatencyRecorder{l}, selectPoints)
	got := make([]float64, len(selectPoints))
	for i, p := range selectPoints {
		got[i] = l.Percentile(p)
	}
	sameBits(t, what+" Percentile", selectPoints, got, want)
	sameBits(t, what+" Tail", TailPoints, l.Tail(), want[1:len(want)-1])
	sameBits(t, what+" merged", selectPoints, percentiles(selectPoints, l), want)
	if !slices.Equal(l.Samples(), samples) {
		t.Fatalf("%s: a percentile query reordered the recorder's samples", what)
	}
}

func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	random := func(n int, mod int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63n(mod)
		}
		return s
	}
	for _, n := range []int{0, 1, 2, 31, 32, 33, 100_000, 1_000_000} {
		checkAgainstRef(t, "random", random(n, 1<<40))
	}
	const n = 100_000
	patterns := map[string]func(i int) int64{
		"all-equal":  func(int) int64 { return 7 },
		"sorted":     func(i int) int64 { return int64(i) },
		"reverse":    func(i int) int64 { return int64(n - i) },
		"organ-pipe": func(i int) int64 { return int64(min(i, n-1-i)) },
		"sawtooth":   func(i int) int64 { return int64(i % 97) },
		"two-values": func(i int) int64 { return int64(i&1) * 1_000_000 },
	}
	for name, f := range patterns {
		s := make([]int64, n)
		for i := range s {
			s[i] = f(i)
		}
		checkAgainstRef(t, name, s)
	}
	for _, n := range []int{2, 33, n} {
		checkAgainstRef(t, "heavy-duplicates", random(n, 5))
		extremes := random(n, 3)
		for i, v := range extremes {
			extremes[i] = []int64{math.MinInt64, math.MaxInt64, 0}[v]
		}
		checkAgainstRef(t, "int64-extremes", extremes)
	}
	checkAgainstRef(t, "int64-extremes-pair", []int64{math.MaxInt64, math.MinInt64})
}

func TestMergedPercentilesMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	rec := func(n int) *LatencyRecorder {
		l := NewLatencyRecorder(n)
		for i := 0; i < n; i++ {
			l.Record(rng.Int63n(1000))
		}
		return l
	}
	kinds := []func() *LatencyRecorder{
		func() *LatencyRecorder { return nil },
		func() *LatencyRecorder { return NewLatencyRecorder(0) },
		func() *LatencyRecorder { return rec(1) },
		func() *LatencyRecorder { return rec(33) },
		func() *LatencyRecorder { return rec(5000) },
	}
	// Every sequence of 0–4 recorders drawn from kinds, in every order.
	var walk func(recs []*LatencyRecorder)
	walk = func(recs []*LatencyRecorder) {
		var before [][]int64
		for _, r := range recs {
			if r != nil {
				before = append(before, r.Samples())
			}
		}
		want := refMerged(recs, selectPoints)
		sameBits(t, "merge", selectPoints, percentiles(selectPoints, recs...), want)
		var after [][]int64
		for _, r := range recs {
			if r != nil {
				after = append(after, r.Samples())
			}
		}
		if !slices.EqualFunc(before, after, slices.Equal[[]int64]) {
			t.Fatal("a merged query changed an input recorder's samples")
		}
		if len(recs) == 4 {
			return
		}
		for _, k := range kinds {
			walk(append(slices.Clip(recs), k()))
		}
	}
	walk(nil)
}

// medianOf3Killer returns n values on which selectRanks, chasing ranks
// in the upper half, picks the second-smallest value of its range as
// the pivot at every partition, so each partition fixes only two
// elements. It is built as McIlroy's adversary builds one: replay the
// kernel's own pivot choice and partition on an array whose unassigned
// elements ("gas") all compare above every assigned value, and assign
// the two smallest values still free to the first and middle elements
// of the range just before each pivot is taken. Gas carries its
// original index, so the replay knows where each element went; values
// still unassigned at the end are given in index order, above the rest.
func medianOf3Killer(n int) []int64 {
	const gas = int64(1) << 40
	w := make([]int64, n)
	for i := range w {
		w[i] = gas + int64(i)
	}
	vals := make([]int64, n)
	assign := func(j int, v int64) {
		vals[w[j]-gas] = v
		w[j] = v
	}
	next := int64(0)
	for lo := 0; n-lo > 12; lo += 2 {
		assign(lo, next)
		assign(lo+(n-lo)/2, next+1)
		next += 2
		pivot := medianOf3(w[lo], w[lo+(n-lo)/2], w[n-1])
		if lt, gt := partition3(w[lo:], pivot); lt != 1 || gt != 2 {
			panic("the adversary lost track of the partition")
		}
	}
	for _, v := range w {
		if v >= gas {
			vals[v-gas] = next + v - gas
		}
	}
	return vals
}

// TestSelectRanksDepthLimit drives the kernel into its depth-limit
// fallback with a median-of-3 killer and checks that the percentiles
// still match the reference, while random input of the same size never
// falls back.
func TestSelectRanksDepthLimit(t *testing.T) {
	const n = 2000
	killer := medianOf3Killer(n)
	ranks := []int{n / 2, n/2 + 1, n - 2, n - 1}
	if fell := selectRanks(slices.Clone(killer), 0, n, ranks, depthLimit(n)); fell == 0 {
		t.Fatal("the median-of-3 killer did not reach the depth-limit fallback")
	}
	random := rand.New(rand.NewSource(7)).Perm(n)
	buf := make([]int64, n)
	for i, v := range random {
		buf[i] = int64(v)
	}
	if fell := selectRanks(buf, 0, n, ranks, depthLimit(n)); fell != 0 {
		t.Fatalf("a random permutation fell back to sorting %d times", fell)
	}
	checkAgainstRef(t, "median-of-3-killer", killer)
	half := NewLatencyRecorderFrom(slices.Clone(killer[:n/2]))
	rest := NewLatencyRecorderFrom(slices.Clone(killer[n/2:]))
	sameBits(t, "median-of-3-killer merged", selectPoints,
		percentiles(selectPoints, half, nil, rest),
		refMerged([]*LatencyRecorder{half, rest}, selectPoints))
}

// FuzzMergedTail splits fuzzed int64s across recorders, cut where the
// bits of cuts say, with a nil and an empty recorder among them when its
// high bits are set, and compares the merged percentiles with the sorted
// reference bit for bit.
func FuzzMergedTail(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(0xff))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64>>1), 1<<63), uint8(0x35))
	seed := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i*i%13))
	}
	f.Add(seed, uint8(0x9a))
	f.Fuzz(func(t *testing.T, data []byte, cuts uint8) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var recs []*LatencyRecorder
		if cuts&0x40 != 0 {
			recs = append(recs, nil)
		}
		if cuts&0x80 != 0 {
			recs = append(recs, NewLatencyRecorder(0))
		}
		// The low six bits mark the cut points between recorders.
		start := 0
		for i := range vals {
			if i > start && cuts&(1<<(i%6)) != 0 {
				recs = append(recs, NewLatencyRecorderFrom(slices.Clone(vals[start:i])))
				start = i
			}
		}
		recs = append(recs, NewLatencyRecorderFrom(slices.Clone(vals[start:])))
		sameBits(t, "fuzz", selectPoints, percentiles(selectPoints, recs...), refMerged(recs, selectPoints))
	})
}
