package clock

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// referenceBalance is the balance scan as a plain blocking walk: every
// park is a blocking Charge or Acquire that resumes the caller's own
// coroutine.
func (c *Clock) referenceBalance(v *sim.Env, wanted int) {
	budget := wanted * c.cfg.ScanBatch
	for c.inactiveIsLow() && budget > 0 && !c.active.Empty() {
		// Isolate under the lruvec lock, walk the rmap without it, then
		// re-take it to apply the decision.
		c.lock.Acquire(v)
		f := c.active.PopTail()
		c.lock.Release(v)
		vpn, cost := c.k.RMap().Walk(f)
		c.stats.RMapWalks++
		c.charge(v, cost)
		budget--
		c.lock.Acquire(v)
		if c.k.Table().TestAndClearAccessed(vpn) {
			c.active.PushHead(f)
			c.stats.Rotated++
		} else {
			c.inactive.PushHead(f)
			c.stats.Demoted++
		}
		c.charge(v, c.cfg.Costs.PageOp)
		c.lock.Release(v)
	}
}

// referenceReclaim is the eviction pass as a plain blocking walk: every
// park is a blocking Charge, Acquire or EvictPage that resumes the
// caller's own coroutine. It is the reference the resumable walk is held
// to (TestReclaimMatchesReference).
func (c *Clock) referenceReclaim(v *sim.Env, target int) int {
	if target <= 0 {
		return 0
	}
	c.referenceBalance(v, target)
	evicted := 0
	// Bound the pass: examine at most the current inactive population
	// plus a batch allowance, so a fully-hot list terminates.
	budget := c.inactive.Len() + c.cfg.ScanBatch
	for evicted < target && budget > 0 && !c.inactive.Empty() {
		c.lock.Acquire(v)
		f := c.inactive.PopTail()
		c.lock.Release(v)
		if f == mem.NilFrame {
			break
		}
		budget--
		vpn, cost := c.k.RMap().Walk(f)
		c.stats.RMapWalks++
		c.charge(v, cost)
		if c.k.Table().TestAndClearAccessed(vpn) {
			// Second chance: referenced while inactive -> activate.
			c.lock.Acquire(v)
			c.active.PushHead(f)
			c.charge(v, c.cfg.Costs.PageOp)
			c.lock.Release(v)
			c.stats.Promoted++
			continue
		}
		c.stats.Evicted++
		c.k.EvictPage(v, f, policy.Shadow{EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}
