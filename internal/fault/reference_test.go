package fault

import (
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// referenceStormDelay is the storm delay as a plain blocking call: a
// stall or extra latency is a blocking sleep that resumes the caller's
// own coroutine.
func (d *Device) referenceStormDelay(v *sim.Env) {
	if !d.plan.Storms.Enabled() {
		return
	}
	active, stall, end, began, stallsBegan := d.storm.at(v.Now())
	d.stats.Storms += began
	d.stats.StallStorms += stallsBegan
	if d.tr != nil && began > 0 {
		d.tr.Instant(d.trTrack, "storm-begin", int64(stallsBegan))
	}
	if !active {
		return
	}
	if stall {
		d.stats.StormDelay += int64(end - v.Now())
		if d.tr != nil {
			d.tr.Emit(d.trTrack, "storm-stall", v.Now(), int64(end-v.Now()), 0)
		}
		v.SleepUntil(end)
		return
	}
	extra := d.plan.Storms.ExtraLatency
	if d.plan.Storms.Jitter > 0 {
		extra = sim.Duration(float64(extra) * d.rng.LogNormal(0, d.plan.Storms.Jitter))
	}
	if extra < 1 {
		extra = 1
	}
	d.stats.StormDelay += extra
	v.Sleep(extra)
}

// writePage is a blocking write through d.WriteStep: the step runs on
// the proc's stack, and continues inline (sim.Env.Suspend) if it parks.
func writePage(v *sim.Env, d swap.Device, slot swap.Slot, vpn int64, version uint32) error {
	w := swap.WriteWalk{Slot: slot, VPN: vpn, Version: version}
	if d.WriteStep(v, &w) {
		v.Suspend(func() bool { return d.WriteStep(v, &w) })
	}
	return w.Err
}

// referenceWritePage is the wrapped write as a plain blocking call: the
// storm delay, the pool stall and the retry backoffs are blocking sleeps
// and the target's write a blocking writePage. It is the reference the
// resumable write is held to (TestWrappedWriteMatchesReference).
func (d *Device) referenceWritePage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	d.referenceStormDelay(v)
	target := d.inner
	if d.overLimit() {
		if d.writtenBack != nil {
			d.stats.WritebackPages++
			d.writtenBack[slot] = struct{}{}
			if d.tr != nil {
				d.tr.Instant(d.trTrack, "pool-writeback", int64(slot))
			}
			target = d.backing
		} else {
			// No writeback target: the reclaiming thread stalls, as a real
			// zram allocation does under mem_limit pressure, then the write
			// proceeds (the pool over-commits rather than losing the page).
			d.stats.PoolStalls++
			if d.tr != nil {
				d.tr.Instant(d.trTrack, "pool-stall", int64(slot))
			}
			if d.plan.ZRAM.StallDelay > 0 {
				d.stats.PoolStallTime += d.plan.ZRAM.StallDelay
				v.Sleep(d.plan.ZRAM.StallDelay)
			}
		}
	}
	if target == d.inner && d.writtenBack != nil {
		// A fresh write into the pool supersedes any written-back copy.
		delete(d.writtenBack, slot)
	}
	cfg := d.plan.WriteErrors
	backoff := cfg.Backoff
	for attempt := 0; ; attempt++ {
		if err := writePage(v, target, slot, vpn, version); err != nil {
			return err
		}
		if !cfg.Enabled() || !d.rng.Bool(cfg.Prob) {
			return nil
		}
		d.stats.TransientWriteErrors++
		if attempt >= cfg.MaxRetries {
			d.stats.HardWriteErrors++
			if d.tr != nil {
				d.tr.Instant(d.trTrack, "hard-write-error", int64(slot))
			}
			return &HardError{Device: d.inner.Name(), Op: "write", Slot: slot, Attempts: attempt + 1}
		}
		d.stats.WriteRetries++
		if d.tr != nil {
			d.tr.Instant(d.trTrack, "write-retry", int64(slot))
		}
		if backoff > 0 {
			v.Sleep(backoff)
			if backoff < d.maxWBackoff {
				backoff *= 2
			}
		}
	}
}
