// Package oracle provides clairvoyant and idealized replacement policies
// used as correctness yardsticks by the differential verification harness
// (package check): an exact LRU that sees every access rather than
// approximating recency from accessed bits, and Belady's OPT driven by a
// recorded first-pass trace. Neither is a realistic kernel policy — both
// need per-access information no hardware provides — which is exactly what
// makes them sharp bounds: no real policy may beat OPT, and exact LRU must
// match the Mattson stack-distance prediction from internal/trace
// bit-for-bit.
package oracle

import (
	"container/heap"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// AccessObserver is the extra channel oracle policies need: the replay
// harness calls Observe for every access in program order — hits and
// misses alike, before the touch or fault is processed. Policies that can
// be driven by accessed bits alone do not implement it.
type AccessObserver interface {
	Observe(v *sim.Env, pos int, vpn pagetable.VPN)
}

// ExactLRU is true least-recently-used replacement: every access moves
// the page to the head of a single recency list, and eviction always
// takes the tail. Under strict demand paging at fixed capacity its fault
// count equals the Mattson miss count exactly.
type ExactLRU struct {
	policy.NoAging
	k     policy.Kernel
	list  *mem.List
	lock  policy.LRULock
	stats policy.Stats
}

// NewExactLRU creates an exact-LRU oracle.
func NewExactLRU() *ExactLRU { return &ExactLRU{} }

// Name implements policy.Policy.
func (l *ExactLRU) Name() string { return "exact-lru" }

// Attach implements policy.Policy.
func (l *ExactLRU) Attach(k policy.Kernel) {
	l.k = k
	l.list = mem.NewList(k.Mem(), 0)
}

// Observe implements AccessObserver: refresh recency on every access to a
// resident page.
func (l *ExactLRU) Observe(v *sim.Env, pos int, vpn pagetable.VPN) {
	pte := l.k.Table().PTE(vpn)
	if !pte.Present() {
		return // the miss's PageIn will insert it at the head
	}
	l.lock.Acquire(v)
	if l.k.Mem().Frame(pte.Frame).ListID != mem.ListNone {
		l.list.MoveToHead(pte.Frame)
	}
	l.lock.Release(v)
}

// PageIn implements policy.Policy.
func (l *ExactLRU) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	l.lock.Acquire(v)
	defer l.lock.Release(v)
	if sh != nil {
		l.stats.Refaults++
	}
	l.list.PushHead(f)
}

// Reclaim implements policy.Policy: evict strictly from the recency tail.
func (l *ExactLRU) Reclaim(v *sim.Env, target int) int {
	evicted := 0
	for evicted < target {
		l.lock.Acquire(v)
		f := l.list.PopTail()
		l.lock.Release(v)
		if f == mem.NilFrame {
			break
		}
		l.stats.Evicted++
		l.k.EvictPage(v, f, policy.Shadow{EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}

// Stats implements policy.Policy.
func (l *ExactLRU) Stats() policy.Stats { return l.stats }

// DebugLock implements policy.LockDebugger.
func (l *ExactLRU) DebugLock() *policy.LRULock { return &l.lock }

// Len reports the recency-list population (tests).
func (l *ExactLRU) Len() int { return l.list.Len() }

// neverAgain is the next-use position of a page with no future access.
const neverAgain = int(^uint(0) >> 1)

// OPT is Belady's clairvoyant optimal policy: on a miss it evicts the
// resident page whose next use lies farthest in the future. It is
// constructed from the full access trace (the recorded first pass), so it
// is only meaningful under the replay harness that feeds it Observe calls
// in trace order.
type OPT struct {
	policy.NoAging
	k    policy.Kernel
	list *mem.List // membership only; selection uses the heap
	lock policy.LRULock

	// next[i] is the position of the next access to trace[i]'s page
	// after i, or neverAgain.
	next []int
	// nextUse[vpn] is the page's next access position as of the cursor.
	nextUse map[pagetable.VPN]int
	// cands is a lazy max-heap of (position, vpn) eviction candidates;
	// entries are validated against nextUse on pop.
	cands optHeap

	stats policy.Stats
}

// NewOPT creates a Belady-OPT oracle for the given access trace.
func NewOPT(trace []pagetable.VPN) *OPT {
	next := make([]int, len(trace))
	seen := make(map[pagetable.VPN]int, 1024)
	for i := len(trace) - 1; i >= 0; i-- {
		if j, ok := seen[trace[i]]; ok {
			next[i] = j
		} else {
			next[i] = neverAgain
		}
		seen[trace[i]] = i
	}
	return &OPT{next: next, nextUse: make(map[pagetable.VPN]int, len(seen))}
}

// Name implements policy.Policy.
func (o *OPT) Name() string { return "opt" }

// Attach implements policy.Policy.
func (o *OPT) Attach(k policy.Kernel) {
	o.k = k
	o.list = mem.NewList(k.Mem(), 0)
}

// Observe implements AccessObserver: advance the page's next-use knowledge
// to the occurrence after pos. Resident pages get a fresh heap entry so
// eviction ranks them by their updated distance.
func (o *OPT) Observe(v *sim.Env, pos int, vpn pagetable.VPN) {
	at := neverAgain
	if pos < len(o.next) {
		at = o.next[pos]
	}
	o.nextUse[vpn] = at
	if o.k.Table().PTE(vpn).Present() {
		heap.Push(&o.cands, optEntry{at: at, vpn: vpn})
	}
}

// PageIn implements policy.Policy.
func (o *OPT) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	o.lock.Acquire(v)
	defer o.lock.Release(v)
	if sh != nil {
		o.stats.Refaults++
	}
	o.list.PushHead(f)
	vpn := pagetable.VPN(o.k.Mem().Frame(f).VPN)
	at, ok := o.nextUse[vpn]
	if !ok {
		at = neverAgain
	}
	heap.Push(&o.cands, optEntry{at: at, vpn: vpn})
}

// Reclaim implements policy.Policy: evict the resident page whose next
// use is farthest in the future. Stale heap entries (superseded by a more
// recent Observe, or already evicted) are discarded on pop.
func (o *OPT) Reclaim(v *sim.Env, target int) int {
	evicted := 0
	for evicted < target {
		f := o.pickVictim()
		if f == mem.NilFrame {
			break
		}
		o.lock.Acquire(v)
		o.list.Remove(f)
		o.lock.Release(v)
		o.stats.Evicted++
		o.k.EvictPage(v, f, policy.Shadow{EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}

// pickVictim pops heap entries until one reflects the current state.
func (o *OPT) pickVictim() mem.FrameID {
	for o.cands.Len() > 0 {
		e := heap.Pop(&o.cands).(optEntry)
		if cur, ok := o.nextUse[e.vpn]; ok && cur != e.at {
			continue // superseded by a later Observe
		}
		pte := o.k.Table().PTE(e.vpn)
		if !pte.Present() {
			continue // already evicted
		}
		if o.k.Mem().Frame(pte.Frame).ListID == mem.ListNone {
			continue // isolated by a concurrent pass
		}
		return pte.Frame
	}
	// Heap exhausted (every entry stale): fall back to list order so
	// reclaim still makes progress.
	return o.list.Tail()
}

// Stats implements policy.Policy.
func (o *OPT) Stats() policy.Stats { return o.stats }

// DebugLock implements policy.LockDebugger.
func (o *OPT) DebugLock() *policy.LRULock { return &o.lock }

// optEntry is one heap candidate: page vpn whose next use was at when the
// entry was pushed.
type optEntry struct {
	at  int
	vpn pagetable.VPN
}

// optHeap is a max-heap on next-use position (farthest first).
type optHeap []optEntry

func (h optHeap) Len() int { return len(h) }
func (h optHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at > h[j].at
	}
	return h[i].vpn > h[j].vpn // deterministic tie-break
}
func (h optHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x any)   { *h = append(*h, x.(optEntry)) }
func (h *optHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

var (
	_ policy.Policy       = (*ExactLRU)(nil)
	_ policy.Policy       = (*OPT)(nil)
	_ AccessObserver      = (*ExactLRU)(nil)
	_ AccessObserver      = (*OPT)(nil)
	_ policy.LockDebugger = (*ExactLRU)(nil)
	_ policy.LockDebugger = (*OPT)(nil)
)
