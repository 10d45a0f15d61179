// Package clock implements the classic Clock-LRU (second chance / 2Q)
// replacement policy that the Linux kernel used for decades: an active
// list holding the presumed working set and an inactive list holding
// eviction candidates.
//
// Its defining cost characteristic, per the paper (§III-B, §V-B): every
// accessed-bit check starts from a physical frame on an LRU list and must
// walk the reverse map to find the PTE, paying the pointer-chase cost for
// every page individually — there is no spatial amortization.
package clock

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// List identities.
const (
	listInactive int16 = 0
	listActive   int16 = 1
)

// Config parameterizes Clock.
type Config struct {
	// Costs is the shared scanning cost model.
	Costs policy.Costs
	// InactiveRatio is the active:inactive balance target — the balance
	// scan demotes active pages whenever inactive < active/InactiveRatio
	// (the kernel's inactive_is_low heuristic). Default 2.
	InactiveRatio int
	// ScanBatch bounds how many pages one balance pass examines per
	// needed eviction. Default 32.
	ScanBatch int
}

// DefaultConfig returns the kernel-like defaults.
func DefaultConfig() Config {
	return Config{Costs: policy.DefaultCosts(), InactiveRatio: 2, ScanBatch: 32}
}

// Clock is the two-list second-chance policy.
type Clock struct {
	// Clock has no background aging thread; all its scanning happens in
	// the reclaim path.
	policy.NoAging
	cfg      Config
	k        policy.Kernel
	active   *mem.List
	inactive *mem.List
	lock     policy.LRULock
	stats    policy.Stats
}

// New creates a Clock policy.
func New(cfg Config) *Clock {
	if cfg.InactiveRatio <= 0 {
		cfg.InactiveRatio = 2
	}
	if cfg.ScanBatch <= 0 {
		cfg.ScanBatch = 32
	}
	return &Clock{cfg: cfg}
}

// Name implements policy.Policy.
func (c *Clock) Name() string { return "clock" }

// Attach implements policy.Policy.
func (c *Clock) Attach(k policy.Kernel) {
	c.k = k
	c.inactive = mem.NewList(k.Mem(), listInactive)
	c.active = mem.NewList(k.Mem(), listActive)
}

// RegisterTelemetry implements telemetry.Registrant: list occupancy
// becomes a pair of gauges so traced runs can watch the active:inactive
// balance evolve. Call after Attach.
func (c *Clock) RegisterTelemetry(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	tr.Gauge("clock.active.len", func() int64 { return int64(c.active.Len()) })
	tr.Gauge("clock.inactive.len", func() int64 { return int64(c.inactive.Len()) })
}

// ActiveLen and InactiveLen expose list occupancy for tests and the
// policyviz tool.
func (c *Clock) ActiveLen() int   { return c.active.Len() }
func (c *Clock) InactiveLen() int { return c.inactive.Len() }

// PageIn implements policy.Policy: new and refaulting pages enter the
// inactive list head and must prove themselves to reach the active list.
func (c *Clock) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	c.lock.Acquire(v)
	defer c.lock.Release(v)
	if sh != nil {
		c.stats.Refaults++
		c.k.Mem().Frame(f).Flags |= mem.FlagWorkingset
	}
	c.inactive.PushHead(f)
	c.charge(v, c.cfg.Costs.PageOp)
}

// charge accounts scan CPU.
func (c *Clock) charge(v *sim.Env, d sim.Duration) {
	c.stats.ScanCPU += d
	v.Charge(d)
}

// inactiveIsLow reports whether the balance scan should demote active
// pages.
func (c *Clock) inactiveIsLow() bool {
	return c.inactive.Len()*c.cfg.InactiveRatio < c.active.Len()
}

// balance scans the tail of the active list, demoting cold pages to the
// inactive list and rotating hot ones — the "periodic scan of the bottom
// of the active list". Each examined page costs one rmap walk.
func (c *Clock) balance(v *sim.Env, wanted int) {
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

// Reclaim implements policy.Policy: second-chance shrink of the inactive
// list tail.
func (c *Clock) Reclaim(v *sim.Env, target int) int {
	if target <= 0 {
		return 0
	}
	c.balance(v, target)
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

// LockStats exposes lruvec-lock contention counters.
func (c *Clock) LockStats() (acquisitions, contended uint64, waitTime sim.Duration) {
	return c.lock.Acquisitions, c.lock.Contended, c.lock.WaitTime
}

// DebugLock implements policy.LockDebugger.
func (c *Clock) DebugLock() *policy.LRULock { return &c.lock }

// Stats implements policy.Policy.
func (c *Clock) Stats() policy.Stats { return c.stats }

var _ policy.Policy = (*Clock)(nil)
