// Package trace analyzes page-access traces offline: exact LRU stack
// distances (Mattson's algorithm with a Fenwick tree, O(N log N)),
// miss-ratio curves for all cache sizes at once, and Denning working-set
// estimates. It complements the online simulator: the simulator answers
// "what does this policy do", the trace analysis answers "what would an
// ideal LRU do", which bounds how much room a policy has.
package trace

import (
	"sort"

	"mglrusim/internal/pagetable"
)

// fenwick is a binary indexed tree over access positions.
type fenwick struct {
	n    int
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{n: n, tree: make([]int, n+1)} }

func (f *fenwick) grow(n int) {
	if n <= f.n {
		return
	}
	nt := make([]int, n+1)
	// Rebuild from scratch is O(n log n); instead re-add the stored
	// values. Extract point values first.
	vals := make([]int, f.n+1)
	for i := 1; i <= f.n; i++ {
		vals[i] = f.rangeSum(i, i)
	}
	f.tree = nt
	oldN := f.n
	f.n = n
	for i := 1; i <= oldN; i++ {
		if vals[i] != 0 {
			f.add(i, vals[i])
		}
	}
}

func (f *fenwick) add(i, delta int) {
	for ; i <= f.n; i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) prefix(i int) int {
	s := 0
	if i > f.n {
		i = f.n
	}
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

func (f *fenwick) rangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	return f.prefix(hi) - f.prefix(lo-1)
}

// Analyzer consumes a stream of page accesses and accumulates reuse
// statistics. Not safe for concurrent use.
type Analyzer struct {
	t        int // access counter (1-based positions)
	lastPos  map[pagetable.VPN]int
	lastSeen map[pagetable.VPN]int // last access index for gap stats
	bit      *fenwick

	// distCount[d] = number of accesses with stack distance d
	// (d = number of distinct pages touched since the previous access
	// to the same page). Cold (first) accesses are counted separately.
	distCount []int
	cold      int

	// gapCount[g] accumulates inter-arrival gaps for working-set math.
	gaps []int
}

// NewAnalyzer creates an analyzer with a capacity hint of n accesses.
func NewAnalyzer(n int) *Analyzer {
	if n < 64 {
		n = 64
	}
	return &Analyzer{
		lastPos:  make(map[pagetable.VPN]int),
		lastSeen: make(map[pagetable.VPN]int),
		bit:      newFenwick(n),
	}
}

// Add feeds one page access.
func (a *Analyzer) Add(vpn pagetable.VPN) {
	a.t++
	if a.t > a.bit.n {
		a.bit.grow(a.bit.n * 2)
	}
	if p, ok := a.lastPos[vpn]; ok {
		// Stack distance = distinct pages accessed in (p, t).
		d := a.bit.rangeSum(p+1, a.t-1)
		for d >= len(a.distCount) {
			a.distCount = append(a.distCount, make([]int, d-len(a.distCount)+64)...)
		}
		a.distCount[d]++
		a.bit.add(p, -1)
		a.gaps = append(a.gaps, a.t-p)
	} else {
		a.cold++
	}
	a.bit.add(a.t, 1)
	a.lastPos[vpn] = a.t
	a.lastSeen[vpn] = a.t
}

// Accesses reports total accesses fed.
func (a *Analyzer) Accesses() int { return a.t }

// Unique reports distinct pages observed.
func (a *Analyzer) Unique() int { return len(a.lastPos) }

// ColdMisses reports first-touch accesses.
func (a *Analyzer) ColdMisses() int { return a.cold }

// MissRatio returns the fraction of accesses that would miss in a
// fully-associative LRU cache of the given page capacity (including cold
// misses).
func (a *Analyzer) MissRatio(capacity int) float64 {
	if a.t == 0 {
		return 0
	}
	hits := 0
	for d := 0; d < capacity && d < len(a.distCount); d++ {
		hits += a.distCount[d]
	}
	return float64(a.t-hits) / float64(a.t)
}

// Misses returns the exact number of accesses that would miss in a
// fully-associative LRU cache of the given page capacity, including cold
// misses — the integer Mattson prediction the differential verification
// harness compares real policies against bit-for-bit.
func (a *Analyzer) Misses(capacity int) int {
	hits := 0
	for d := 0; d < capacity && d < len(a.distCount); d++ {
		hits += a.distCount[d]
	}
	return a.t - hits
}

// DistancePercentile returns the stack distance below which the given
// fraction of reuses fall (reuses only; cold misses excluded).
func (a *Analyzer) DistancePercentile(p float64) int {
	total := 0
	for _, c := range a.distCount {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int(p * float64(total))
	run := 0
	for d, c := range a.distCount {
		run += c
		if run >= target {
			return d
		}
	}
	return len(a.distCount)
}

// WorkingSet estimates Denning's average working-set size for a window
// of w accesses: the mean number of distinct pages touched in any window
// of length w, computed from inter-arrival gaps (exact up to boundary
// effects at the trace's ends).
func (a *Analyzer) WorkingSet(w int) float64 {
	if a.t == 0 || w <= 0 {
		return 0
	}
	// A page contributes to the working set at time t iff its most
	// recent access is within the last w accesses. Integrating over t:
	// each access contributes min(gap_to_next_access, w); the final
	// access of each page contributes min(T - last + ... , w) ≈ min(w,
	// T-last+1).
	sum := 0
	for _, g := range a.gaps {
		if g < w {
			sum += g
		} else {
			sum += w
		}
	}
	for _, last := range a.lastSeen {
		tail := a.t - last + 1
		if tail < w {
			sum += tail
		} else {
			sum += w
		}
	}
	return float64(sum) / float64(a.t)
}

// HotPages returns the n most frequently accessed pages with their
// access counts, most popular first.
func (a *Analyzer) HotPages(n int, counts map[pagetable.VPN]int) []HotPage {
	// counts is supplied by the caller (the analyzer does not retain
	// per-page counts itself to stay lean); see CountAccesses.
	out := make([]HotPage, 0, len(counts))
	for vpn, c := range counts {
		out = append(out, HotPage{VPN: vpn, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].VPN < out[j].VPN
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// HotPage pairs a page with its access count.
type HotPage struct {
	VPN   pagetable.VPN
	Count int
}
