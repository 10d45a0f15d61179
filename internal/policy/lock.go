package policy

import "mglrusim/internal/sim"

// LRULock models the kernel's per-lruvec lru_lock: every list mutation —
// fault-path insertion, eviction-candidate isolation, and the aging
// walk's batch promotions — serializes on it. Its contention is how
// scanning volume couples into fault latency: a policy that scans a lot
// holds the lock a lot, and every demand fault then queues behind the
// scanner to insert its page. This is the overhead channel behind the
// paper's Scan-All results and §VI-B's discussion of scanning overhead
// versus swap cost.
//
// The lock is reentrant per proc, because eviction can trigger aging
// inline.
type LRULock struct {
	owner *sim.Proc
	depth int
	cond  sim.Cond

	// Contention counters.
	Acquisitions uint64
	Contended    uint64
	WaitTime     sim.Duration
}

// Acquire takes the lock, blocking the proc while another proc holds it.
func (l *LRULock) Acquire(v *sim.Env) {
	p := v.Proc()
	if l.owner == p {
		l.depth++
		return
	}
	if l.owner != nil {
		l.Contended++
		start := v.Now()
		for l.owner != nil {
			v.Wait(&l.cond)
		}
		l.WaitTime += int64(v.Now() - start)
	}
	l.owner = p
	l.depth = 1
	l.Acquisitions++
}

// Release drops one level of the lock; the outermost release wakes one
// waiter.
func (l *LRULock) Release(v *sim.Env) {
	if l.owner != v.Proc() {
		panic("policy: releasing LRULock not held by caller")
	}
	l.depth--
	if l.depth == 0 {
		l.owner = nil
		l.cond.Signal(v.Engine())
	}
}

// Held reports whether the calling proc holds the lock.
func (l *LRULock) Held(v *sim.Env) bool { return l.owner == v.Proc() }

// DebugOwner reports the current owner (development aid).
func (l *LRULock) DebugOwner() *sim.Proc { return l.owner }

// LockDebugger is implemented by policies that expose their lruvec lock,
// letting the invariant auditor assert that every LRU-list mutation
// happens with the lock held by the acting proc.
type LockDebugger interface {
	DebugLock() *LRULock
}
