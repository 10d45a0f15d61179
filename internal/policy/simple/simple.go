// Package simple provides baseline replacement policies — FIFO and
// Random — that bracket the design space the paper explores. Neither
// scans accessed bits, so they pay zero tracking overhead; what they give
// up is exactly the recency signal Clock and MG-LRU buy with their scans.
// The paper's §V-B discussion (production key-value caches favouring
// FIFO variants over LRU under zipfian skew) is directly testable
// against these.
package simple

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// FIFO evicts pages strictly in fault-in order.
type FIFO struct {
	policy.NoAging
	k     policy.Kernel
	queue *mem.List
	lock  policy.LRULock
	costs policy.Costs
	stats policy.Stats
}

// NewFIFO creates a FIFO policy.
func NewFIFO() *FIFO { return &FIFO{costs: policy.DefaultCosts()} }

// Name implements policy.Policy.
func (f *FIFO) Name() string { return "fifo" }

// Attach implements policy.Policy.
func (f *FIFO) Attach(k policy.Kernel) {
	f.k = k
	f.queue = mem.NewList(k.Mem(), 0)
}

// PageIn implements policy.Policy.
func (f *FIFO) PageIn(v *sim.Env, fr mem.FrameID, sh *policy.Shadow) {
	f.lock.Acquire(v)
	defer f.lock.Release(v)
	if sh != nil {
		f.stats.Refaults++
	}
	f.queue.PushHead(fr)
	f.stats.ScanCPU += f.costs.PageOp
	v.Charge(f.costs.PageOp)
}

// Reclaim implements policy.Policy: no accessed-bit checks, no rmap
// walks — pop the tail and evict.
func (f *FIFO) Reclaim(v *sim.Env, target int) int {
	evicted := 0
	for evicted < target {
		f.lock.Acquire(v)
		fr := f.queue.PopTail()
		f.lock.Release(v)
		if fr == mem.NilFrame {
			break
		}
		meta := f.k.Mem().Frame(fr)
		f.stats.Evicted++
		f.k.EvictPage(v, fr, policy.Shadow{Tier: meta.Tier, EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}

// Stats implements policy.Policy.
func (f *FIFO) Stats() policy.Stats { return f.stats }

// DebugLock implements policy.LockDebugger.
func (f *FIFO) DebugLock() *policy.LRULock { return &f.lock }

// Random evicts uniformly random resident pages. It is the
// zero-information baseline: any policy paying for access tracking
// should beat it wherever recency carries signal.
type Random struct {
	policy.NoAging
	k     policy.Kernel
	pool  *mem.List
	lock  policy.LRULock
	costs policy.Costs
	rng   *sim.RNG
	stats policy.Stats
}

// NewRandom creates a Random policy.
func NewRandom() *Random { return &Random{costs: policy.DefaultCosts()} }

// Name implements policy.Policy.
func (r *Random) Name() string { return "random" }

// Attach implements policy.Policy.
func (r *Random) Attach(k policy.Kernel) {
	r.k = k
	r.pool = mem.NewList(k.Mem(), 0)
	r.rng = k.Rand()
}

// PageIn implements policy.Policy.
func (r *Random) PageIn(v *sim.Env, fr mem.FrameID, sh *policy.Shadow) {
	r.lock.Acquire(v)
	defer r.lock.Release(v)
	if sh != nil {
		r.stats.Refaults++
	}
	r.pool.PushHead(fr)
	r.stats.ScanCPU += r.costs.PageOp
	v.Charge(r.costs.PageOp)
}

// Reclaim implements policy.Policy: pick a victim by walking a random
// number of steps from the tail (bounded, so the cost stays O(k)).
func (r *Random) Reclaim(v *sim.Env, target int) int {
	const maxWalk = 16
	evicted := 0
	for evicted < target {
		r.lock.Acquire(v)
		fr := r.pool.Tail()
		if fr == mem.NilFrame {
			r.lock.Release(v)
			break
		}
		steps := r.rng.Intn(maxWalk)
		for i := 0; i < steps; i++ {
			next := r.k.Mem().Frame(fr).Prev
			if next == mem.NilFrame {
				break
			}
			fr = next
		}
		r.pool.Remove(fr)
		r.lock.Release(v)
		meta := r.k.Mem().Frame(fr)
		r.stats.Evicted++
		r.k.EvictPage(v, fr, policy.Shadow{Tier: meta.Tier, EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}

// Stats implements policy.Policy.
func (r *Random) Stats() policy.Stats { return r.stats }

// DebugLock implements policy.LockDebugger.
func (r *Random) DebugLock() *policy.LRULock { return &r.lock }

var (
	_ policy.Policy = (*FIFO)(nil)
	_ policy.Policy = (*Random)(nil)
)
