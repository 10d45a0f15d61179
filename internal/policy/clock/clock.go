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
	"mglrusim/internal/pagetable"
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
	// reclaims runs Reclaim's passes, whose cursors reclaimStep hands on
	// to the kernel's EvictStep.
	reclaims sim.Stepper[reclaimWalk]
}

// New creates a Clock policy.
func New(cfg Config) *Clock {
	if cfg.InactiveRatio <= 0 {
		cfg.InactiveRatio = 2
	}
	if cfg.ScanBatch <= 0 {
		cfg.ScanBatch = 32
	}
	c := &Clock{cfg: cfg}
	c.reclaims.Step = c.reclaimStep
	return c
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

// tryCharge is charge's non-blocking form (sim.Env.TryCharge).
func (c *Clock) tryCharge(v *sim.Env, d sim.Duration) bool {
	c.stats.ScanCPU += d
	return v.TryCharge(d)
}

// inactiveIsLow reports whether the balance scan should demote active
// pages.
func (c *Clock) inactiveIsLow() bool {
	return c.inactive.Len()*c.cfg.InactiveRatio < c.active.Len()
}

// Reclaim implements policy.Policy: a balance scan of the bottom of the
// active list, then a second-chance shrink of the inactive list tail. It
// runs the pass of reclaimStep, continuing it inline (sim.Env.Suspend)
// if it parks.
func (c *Clock) Reclaim(v *sim.Env, target int) int {
	if target <= 0 {
		return 0
	}
	r := c.reclaims.Get()
	c.startReclaim(&r.W, target)
	if c.reclaimStep(v, &r.W) {
		c.reclaims.Suspend(v, r)
	}
	evicted := r.W.evicted
	c.reclaims.Put(r)
	return evicted
}

// startReclaim sets w up for a pass that evicts up to target pages. The
// rest of w is set where the pass reaches it (the page, its eviction),
// and a lock wait is always over when a pass ends.
func (c *Clock) startReclaim(w *reclaimWalk, target int) {
	w.at, w.target, w.evicted, w.budget = balanceScan, target, 0, target*c.cfg.ScanBatch
}

// reclaimWalk is the cursor of an eviction pass.
type reclaimWalk struct {
	at      uint8
	target  int
	evicted int
	budget  int           // pages the current scan may still examine
	f       mem.FrameID   // the isolated page
	vpn     pagetable.VPN // its page-table entry
	lock    policy.LockWait
	evict   policy.EvictWalk // the page's eviction
}

// The points of an eviction pass, in reclaimWalk.at. Each is where the
// pass goes on after a park, so state is read at the same point relative
// to each park as in a blocking pass.
const (
	balanceScan     = iota // the balance scan's loop test
	balanceLock            // take the lock to isolate an active page
	balanceApply           // walk charged: take the lock to demote or rotate
	balanceApplied         // the move's charge is over
	shrinkScan             // the shrink's loop test
	shrinkLock             // take the lock to isolate an inactive page
	shrinkWalked           // the page's rmap walk is charged
	shrinkEvict            // the page's eviction is in flight
	shrinkActivate         // take the lock to activate a referenced page
	shrinkActivated        // the activation's charge is over
)

// reclaimStep runs the pass w until it parks the proc, and then reports
// true; it reports false when the pass is over, with its result in
// w.evicted.
//
// The balance scan examines the tail of the active list, demoting cold
// pages to the inactive list and rotating hot ones — the "periodic scan
// of the bottom of the active list". Each examined page costs one rmap
// walk: isolate under the lruvec lock, walk the rmap without it, then
// re-take it to apply the decision.
func (c *Clock) reclaimStep(v *sim.Env, w *reclaimWalk) (parked bool) {
	for {
		switch w.at {
		case balanceScan:
			if !c.inactiveIsLow() || w.budget <= 0 || c.active.Empty() {
				// Bound the shrink: examine at most the current inactive
				// population plus a batch allowance, so a fully-hot list
				// terminates.
				w.budget = c.inactive.Len() + c.cfg.ScanBatch
				w.at = shrinkScan
				continue
			}
			w.at = balanceLock
			fallthrough
		case balanceLock:
			if !c.lock.TryAcquire(v, &w.lock) {
				return true
			}
			w.f = c.active.PopTail()
			c.lock.Release(v)
			w.budget--
			if c.walk(v, w, balanceApply) {
				return true
			}
			fallthrough
		case balanceApply:
			if !c.lock.TryAcquire(v, &w.lock) {
				return true
			}
			if c.k.Table().TestAndClearAccessed(w.vpn) {
				c.active.PushHead(w.f)
				c.stats.Rotated++
			} else {
				c.inactive.PushHead(w.f)
				c.stats.Demoted++
			}
			w.at = balanceApplied
			if !c.tryCharge(v, c.cfg.Costs.PageOp) {
				return true
			}
			fallthrough
		case balanceApplied:
			c.lock.Release(v)
			w.at = balanceScan
		case shrinkScan:
			if w.evicted >= w.target || w.budget <= 0 || c.inactive.Empty() {
				return false
			}
			w.at = shrinkLock
			fallthrough
		case shrinkLock:
			if !c.lock.TryAcquire(v, &w.lock) {
				return true
			}
			w.f = c.inactive.PopTail()
			c.lock.Release(v)
			if w.f == mem.NilFrame {
				return false
			}
			w.budget--
			if c.walk(v, w, shrinkWalked) {
				return true
			}
			fallthrough
		case shrinkWalked:
			if c.k.Table().TestAndClearAccessed(w.vpn) {
				// Second chance: referenced while inactive -> activate.
				w.at = shrinkActivate
				continue
			}
			c.stats.Evicted++
			w.evict.F, w.evict.Shadow, w.evict.At = w.f, policy.Shadow{EvictedAt: v.Now()}, 0
			w.at = shrinkEvict
			fallthrough
		case shrinkEvict:
			if c.k.EvictStep(v, &w.evict) {
				return true
			}
			w.evicted++
			w.at = shrinkScan
		case shrinkActivate:
			if !c.lock.TryAcquire(v, &w.lock) {
				return true
			}
			c.active.PushHead(w.f)
			w.at = shrinkActivated
			if !c.tryCharge(v, c.cfg.Costs.PageOp) {
				return true
			}
			fallthrough
		case shrinkActivated:
			c.lock.Release(v)
			c.stats.Promoted++
			w.at = shrinkScan
		}
	}
}

// walk resolves the isolated page's PTE through the reverse map and
// charges the walk, going on at next. It reports whether the charge
// parked the proc.
func (c *Clock) walk(v *sim.Env, w *reclaimWalk, next uint8) (parked bool) {
	vpn, cost := c.k.RMap().Walk(w.f)
	c.stats.RMapWalks++
	w.vpn = vpn
	w.at = next
	return !c.tryCharge(v, cost)
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
