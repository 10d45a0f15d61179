// Package pidctl implements the proportional-integral-derivative control
// used by MG-LRU to balance refault rates across tiers (mm/vmscan.c's
// positive-feedback protection of file-backed tiers). The paper (§III-D)
// describes the mechanism: if the refault rate of a higher tier — which
// contains only pages accessed through file descriptors — exceeds that of
// the lowest tier, the controller protects the higher tier from eviction
// until the rates rebalance.
//
// Two layers are provided: a generic PID Controller, and the TierGain
// bookkeeping that mirrors the kernel's ctrl_pos/read_ctrl_pos comparison
// of refaulted/evicted ratios between tiers.
package pidctl

// Controller is a textbook discrete PID controller.
type Controller struct {
	// Gains. The kernel's tier protection is dominated by the
	// proportional term with a slow integral; derivative defaults to 0.
	Kp, Ki, Kd float64

	integral float64
	prevErr  float64
	primed   bool

	// IntegralClamp bounds the magnitude of the accumulated integral
	// term to prevent windup; 0 disables clamping.
	IntegralClamp float64
}

// Update advances the controller with error err over timestep dt (any
// consistent unit) and returns the control output.
func (c *Controller) Update(err, dt float64) float64 {
	if dt <= 0 {
		panic("pidctl: non-positive timestep")
	}
	// The float64 conversions here and below keep each product from
	// fusing with its sum into one FMA, which rounds once, on
	// architectures that have it, so the tier decisions are the same on
	// every architecture.
	c.integral += float64(err * dt)
	if c.IntegralClamp > 0 {
		if c.integral > c.IntegralClamp {
			c.integral = c.IntegralClamp
		} else if c.integral < -c.IntegralClamp {
			c.integral = -c.IntegralClamp
		}
	}
	deriv := 0.0
	if c.primed {
		deriv = (err - c.prevErr) / dt
	}
	c.prevErr = err
	c.primed = true
	return float64(c.Kp*err) + float64(c.Ki*c.integral) + float64(c.Kd*deriv)
}

// Reset clears accumulated state.
func (c *Controller) Reset() {
	c.integral = 0
	c.prevErr = 0
	c.primed = false
}

// Pos is a control position: evicted and refaulted page counts for one
// tier over a control interval, mirroring the kernel's struct ctrl_pos.
type Pos struct {
	Evicted   uint64
	Refaulted uint64
}

// Rate returns the refault rate with Laplace smoothing so empty tiers do
// not produce divide-by-zero or wild swings.
func (p Pos) Rate() float64 {
	return float64(p.Refaulted+1) / float64(p.Evicted+p.Refaulted+2)
}

// TierSet tracks refault positions for each tier and answers the
// protection question MG-LRU's eviction asks: up to which tier should
// pages be protected (promoted rather than evicted)?
type TierSet struct {
	tiers []Pos
	ctl   []Controller
}

// NewTierSet creates state for n tiers with the given proportional and
// integral gains on the rate imbalance.
func NewTierSet(n int, kp, ki float64) *TierSet {
	ts := &TierSet{
		tiers: make([]Pos, n),
		ctl:   make([]Controller, n),
	}
	for i := range ts.ctl {
		ts.ctl[i] = Controller{Kp: kp, Ki: ki, IntegralClamp: 10}
	}
	return ts
}

// Tiers reports the number of tiers tracked.
func (ts *TierSet) Tiers() int { return len(ts.tiers) }

// RecordEviction notes that a page from tier t was evicted.
func (ts *TierSet) RecordEviction(t int) { ts.tiers[t].Evicted++ }

// RecordRefault notes that a page evicted from tier t refaulted.
func (ts *TierSet) RecordRefault(t int) { ts.tiers[t].Refaulted++ }

// Snapshot returns the current position of tier t.
func (ts *TierSet) Snapshot(t int) Pos { return ts.tiers[t] }

// ProtectedTier computes, via the per-tier controllers, the highest tier
// index that should NOT be protected: eviction may take pages from tiers
// <= the returned value. Tiers above it have refault rates exceeding the
// base tier's and are shielded. dt is the control timestep.
func (ts *TierSet) ProtectedTier(dt float64) int {
	base := ts.tiers[0].Rate()
	allow := len(ts.tiers) - 1
	for t := 1; t < len(ts.tiers); t++ {
		imbalance := ts.tiers[t].Rate() - base
		out := ts.ctl[t].Update(imbalance, dt)
		if out > 0 {
			// Tier t refaults more than the base tier: protect it and
			// everything hotter.
			allow = t - 1
			break
		}
	}
	return allow
}

// Decay halves all counters, aging out stale history the way the kernel
// does between control periods.
func (ts *TierSet) Decay() {
	for i := range ts.tiers {
		ts.tiers[i].Evicted /= 2
		ts.tiers[i].Refaulted /= 2
	}
}
