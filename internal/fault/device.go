package fault

import (
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
)

// stormClock lazily materializes the seeded storm schedule. Storm windows
// are drawn in virtual-time order as device operations observe the clock,
// so the schedule is a pure function of (seed, plan) regardless of how
// many I/Os occur.
type stormClock struct {
	cfg   StormConfig
	rng   *sim.RNG
	next  sim.Time // start of the next not-yet-begun storm
	end   sim.Time // end of the most recent storm
	stall bool     // the most recent storm is a full stall
	init  bool
}

func (s *stormClock) gap() sim.Time {
	return sim.Time(s.rng.ExpFloat64() * float64(sim.Second) / s.cfg.Rate)
}

// at advances the schedule to now and reports whether a storm is active,
// whether it is a stall, and when it ends. began counts storms (and stall
// storms) that started at or before now since the last call.
func (s *stormClock) at(now sim.Time) (active, stall bool, end sim.Time, began, stallsBegan uint64) {
	if !s.init {
		s.init = true
		s.next = s.gap()
	}
	for now >= s.next {
		dur := sim.Time(s.rng.ExpFloat64() * float64(s.cfg.MeanDuration))
		if dur < 1 {
			dur = 1
		}
		s.end = s.next + dur
		s.stall = s.cfg.StallProb > 0 && s.rng.Bool(s.cfg.StallProb)
		began++
		if s.stall {
			stallsBegan++
		}
		// The next storm arrives a fresh exponential gap after this one
		// ends (storms never overlap).
		s.next = s.end + s.gap()
	}
	return now < s.end, s.stall, s.end, began, stallsBegan
}

// Device wraps a swap.Device and injects the plan's device-level faults.
// It implements swap.Device, so its consumers see only the errors its
// I/O methods return.
// All injection randomness comes from its own RNG stream, drawn in
// operation order — never from the wrapped device's stream — so enabling
// a sub-fault does not perturb the inner device's jitter sequence.
type Device struct {
	inner   swap.Device
	backing swap.Device // writeback target for pool pressure; may be nil
	file    bool        // wraps the file backing device (WrapFile)
	plan    Plan
	rng     *sim.RNG
	storm   stormClock

	// writtenBack marks slots whose latest copy lives on the backing SSD
	// rather than in the wrapped device.
	writtenBack map[swap.Slot]struct{}

	maxBackoff  sim.Duration // read-retry backoff cap
	maxWBackoff sim.Duration // write-retry backoff cap
	stats       Stats

	// writes runs WritePage's writes, whose cursors WriteStep hands on
	// to the wrapped medium.
	writes sim.Stepper[swap.WriteWalk]

	tr      *telemetry.Tracer
	trTrack telemetry.TrackID // the fault plane's own lane
}

// SetTracer implements swap.TracerSetter: injected events (storm windows,
// read retries, pool pressure) land on a dedicated "fault-plane" track, and
// the tracer is forwarded to the wrapped and backing devices.
func (d *Device) SetTracer(tr *telemetry.Tracer) {
	d.tr = tr
	if tr != nil {
		d.trTrack = tr.Track("fault-plane")
	}
	if ts, ok := d.inner.(swap.TracerSetter); ok {
		ts.SetTracer(tr)
	}
	if ts, ok := d.backing.(swap.TracerSetter); ok {
		ts.SetTracer(tr)
	}
}

// Wrap applies plan to inner, a swap device. backing is the writeback SSD
// for zram pool pressure; pass nil when the plan has no writeback. rng
// must be a dedicated stream.
func Wrap(inner swap.Device, plan Plan, backing swap.Device, rng *sim.RNG) *Device {
	d := &Device{
		inner:       inner,
		backing:     backing,
		plan:        plan,
		rng:         rng,
		storm:       stormClock{cfg: plan.Storms, rng: rng.Stream(1)},
		maxBackoff:  plan.ReadErrors.Backoff * 32,
		maxWBackoff: plan.WriteErrors.Backoff * 32,
	}
	if plan.NeedsBacking() && backing != nil {
		d.writtenBack = make(map[swap.Slot]struct{}, 256)
	}
	d.writes.Step = d.WriteStep
	return d
}

// WrapFile applies plan to inner, the page cache's file backing device.
// It differs from Wrap only in readahead: a file prefetch flips one
// read-error coin (see PrefetchPage). The file device has no writeback
// target, so there is no backing argument.
func WrapFile(inner swap.Device, plan Plan, rng *sim.RNG) *Device {
	d := Wrap(inner, plan, nil, rng)
	d.file = true
	return d
}

// Name implements Device, passing the wrapped medium's name through (the
// wrapper is an overlay, not a medium).
func (d *Device) Name() string { return d.inner.Name() }

// stormDelay applies the active storm window to an I/O of the calling
// proc: it reports whether the I/O has to wait, and until when — the
// storm's end for a full stall, a jittered extra delay for a latency
// storm.
func (d *Device) stormDelay(v *sim.Env) (until sim.Time, delayed bool) {
	if !d.plan.Storms.Enabled() {
		return 0, false
	}
	active, stall, end, began, stallsBegan := d.storm.at(v.Now())
	d.stats.Storms += began
	d.stats.StallStorms += stallsBegan
	if d.tr != nil && began > 0 {
		d.tr.Instant(d.trTrack, "storm-begin", int64(stallsBegan))
	}
	if !active {
		return 0, false
	}
	if stall {
		d.stats.StormDelay += int64(end - v.Now())
		if d.tr != nil {
			d.tr.Emit(d.trTrack, "storm-stall", v.Now(), int64(end-v.Now()), 0)
		}
		return end, true
	}
	extra := d.plan.Storms.ExtraLatency
	if d.plan.Storms.Jitter > 0 {
		extra = sim.Duration(float64(extra) * d.rng.LogNormal(0, d.plan.Storms.Jitter))
	}
	if extra < 1 {
		extra = 1
	}
	d.stats.StormDelay += extra
	return v.Now() + sim.Time(extra), true
}

// readFrom routes a read to the backing SSD when the slot's latest copy
// was written back there.
func (d *Device) readFrom(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	if _, ok := d.writtenBack[slot]; ok {
		d.stats.WritebackReads++
		return d.backing.ReadPage(v, slot, vpn, version)
	}
	return d.inner.ReadPage(v, slot, vpn, version)
}

// ReadPage implements Device: storm delay, then the inner read, retried
// with exponential backoff on injected transient errors. Exhausting the
// retry budget returns a *HardError; the swap path fails the trial on it
// the way an uncorrectable media error fails a real swap-in, while the
// page cache poisons the page and keeps running.
func (d *Device) ReadPage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	if until, delayed := d.stormDelay(v); delayed {
		v.SleepUntil(until)
	}
	cfg := d.plan.ReadErrors
	backoff := cfg.Backoff
	for attempt := 0; ; attempt++ {
		if err := d.readFrom(v, slot, vpn, version); err != nil {
			return err
		}
		if !cfg.Enabled() || !d.rng.Bool(cfg.Prob) {
			return nil
		}
		d.stats.TransientReadErrors++
		if attempt >= cfg.MaxRetries {
			d.stats.HardReadErrors++
			if d.tr != nil {
				// Newest flight-recorder entry when the HardError unwinds
				// (or, on the degradation path, when the page is poisoned).
				d.tr.Instant(d.trTrack, "hard-read-error", int64(slot))
			}
			return &HardError{Device: d.inner.Name(), Op: "read", Slot: slot, Attempts: attempt + 1}
		}
		d.stats.ReadRetries++
		if d.tr != nil {
			d.tr.Instant(d.trTrack, "read-retry", int64(slot))
		}
		if backoff > 0 {
			v.Sleep(backoff)
			if backoff < d.maxBackoff {
				backoff *= 2
			}
		}
	}
}

// overLimit reports whether the wrapped device's compressed pool has
// reached the configured mem limit.
func (d *Device) overLimit() bool {
	cfg := d.plan.ZRAM
	return cfg.Enabled() && d.inner.Stats().CompressedBytes >= cfg.MemLimitBytes
}

// WritePage implements Device: storm delay, then either the inner write
// or — when the compressed pool is over its mem limit — a writeback to
// the backing SSD or a reclaim stall. Injected write errors are retried
// with backoff; past the budget it returns a *HardError. With WriteErrors
// unconfigured no coins are flipped. It runs the write of WriteStep,
// continuing it inline (sim.Env.Suspend) if it parks.
func (d *Device) WritePage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	c := d.writes.Get()
	c.W = swap.WriteWalk{Slot: slot, VPN: vpn, Version: version}
	if d.WriteStep(v, &c.W) {
		d.writes.Suspend(v, c)
	}
	err := c.W.Err
	d.writes.Put(c)
	return err
}

// The points of a wrapped write, in WriteWalk.WrapAt. The wrapped
// medium keeps its own point in WriteWalk.At.
const (
	wrapStart   = iota // the storm delay
	wrapPool           // the pool's mem limit, once the storm delay is over
	wrapWrite          // attempt w.Attempt on the target
	wrapBackoff        // the backoff after a failed attempt is over
)

// WriteStep implements Device: WritePage as a resumable write.
func (d *Device) WriteStep(v *sim.Env, w *swap.WriteWalk) (parked bool) {
	for {
		switch w.WrapAt {
		case wrapStart:
			w.WrapAt = wrapPool
			if until, delayed := d.stormDelay(v); delayed && !v.TrySleepUntil(until) {
				return true
			}
		case wrapPool:
			w.WrapAt = wrapWrite
			w.Backoff = d.plan.WriteErrors.Backoff
			if d.overLimit() {
				if d.writtenBack != nil {
					d.stats.WritebackPages++
					d.writtenBack[w.Slot] = struct{}{}
					if d.tr != nil {
						d.tr.Instant(d.trTrack, "pool-writeback", int64(w.Slot))
					}
					w.Backing = true
					continue
				}
				// No writeback target: the reclaiming thread stalls, as a
				// real zram allocation does under mem_limit pressure, then
				// the write proceeds (the pool over-commits rather than
				// losing the page).
				d.stats.PoolStalls++
				if d.tr != nil {
					d.tr.Instant(d.trTrack, "pool-stall", int64(w.Slot))
				}
				if stall := d.plan.ZRAM.StallDelay; stall > 0 {
					d.stats.PoolStallTime += stall
					if !v.TrySleepUntil(v.Now() + sim.Time(stall)) {
						return true
					}
				}
			}
			if d.writtenBack != nil {
				// A fresh write into the pool supersedes any written-back
				// copy.
				delete(d.writtenBack, w.Slot)
			}
		case wrapWrite:
			target := d.inner
			if w.Backing {
				target = d.backing
			}
			if target.WriteStep(v, w) {
				return true
			}
			cfg := d.plan.WriteErrors
			if w.Err != nil || !cfg.Enabled() || !d.rng.Bool(cfg.Prob) {
				return false
			}
			d.stats.TransientWriteErrors++
			if w.Attempt >= cfg.MaxRetries {
				d.stats.HardWriteErrors++
				if d.tr != nil {
					d.tr.Instant(d.trTrack, "hard-write-error", int64(w.Slot))
				}
				w.Err = &HardError{Device: d.inner.Name(), Op: "write", Slot: w.Slot, Attempts: w.Attempt + 1}
				return false
			}
			d.stats.WriteRetries++
			if d.tr != nil {
				d.tr.Instant(d.trTrack, "write-retry", int64(w.Slot))
			}
			w.WrapAt = wrapBackoff
			if w.Backoff > 0 && !v.TrySleepUntil(v.Now()+sim.Time(w.Backoff)) {
				return true
			}
		case wrapBackoff:
			if w.Backoff > 0 && w.Backoff < d.maxWBackoff {
				w.Backoff *= 2
			}
			w.Attempt++
			w.At, w.Stall = 0, telemetry.Span{}
			w.WrapAt = wrapWrite
		}
	}
}

// PrefetchPage implements Device. Readahead rides the anchoring demand
// read's I/O, which already paid the storm delay, so routing applies:
// written-back slots skip decompression but pay the backing SSD's
// per-page completion cost. On the file device one transient-error coin
// follows, with no retry budget (the kernel never retries readahead), so
// a failed flip abandons the prefetch; callers must not treat that error
// as fatal. The swap wrapper flips no coin, so swap readahead draws no
// RNG and injects no failure.
func (d *Device) PrefetchPage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	if _, ok := d.writtenBack[slot]; ok {
		d.stats.WritebackReads++
		return d.backing.PrefetchPage(v, slot, vpn, version)
	}
	if err := d.inner.PrefetchPage(v, slot, vpn, version); err != nil || !d.file {
		return err
	}
	cfg := d.plan.ReadErrors
	if cfg.Enabled() && d.rng.Bool(cfg.Prob) {
		d.stats.PrefetchErrors++
		if d.tr != nil {
			d.tr.Instant(d.trTrack, "prefetch-error", int64(slot))
		}
		return &HardError{Device: d.inner.Name(), Op: "read", Slot: slot, Attempts: 1}
	}
	return nil
}

// FreeSlot implements Device.
func (d *Device) FreeSlot(slot swap.Slot) {
	if d.writtenBack != nil {
		delete(d.writtenBack, slot)
	}
	d.inner.FreeSlot(slot)
	if d.backing != nil {
		d.backing.FreeSlot(slot)
	}
}

// Drain implements Device.
func (d *Device) Drain(v *sim.Env) {
	d.inner.Drain(v)
	if d.backing != nil {
		d.backing.Drain(v)
	}
}

// Stats implements Device, merging inner and backing device activity.
func (d *Device) Stats() swap.Stats {
	s := d.inner.Stats()
	if d.backing != nil {
		b := d.backing.Stats()
		s.Reads += b.Reads
		s.Writes += b.Writes
		s.ReadTime += b.ReadTime
		s.WriteTime += b.WriteTime
		s.WriteStalls += b.WriteStalls
	}
	return s
}

// FaultStats reports what the wrapper injected.
func (d *Device) FaultStats() Stats { return d.stats }

var _ swap.Device = (*Device)(nil)
