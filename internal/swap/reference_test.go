package swap

import (
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// writePage is a blocking write through d.WriteStep: the step runs on
// the proc's stack, and continues inline (sim.Env.Suspend) if it parks.
func writePage(v *sim.Env, d Device, slot Slot, vpn int64, version uint32) error {
	w := WriteWalk{Slot: slot, VPN: vpn, Version: version}
	if d.WriteStep(v, &w) {
		v.Suspend(func() bool { return d.WriteStep(v, &w) })
	}
	return w.Err
}

// referenceWritePage is the SSD write as a plain blocking call: the
// backpressure wait is a blocking Wait that resumes the caller's own
// coroutine. It is the reference the resumable write is held to
// (TestWriteMatchesReference).
func (d *SSD) referenceWritePage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	var stall telemetry.Span
	if d.tr != nil && d.inWrite >= d.cfg.MaxDirtyWrites {
		stall = d.tr.Begin(d.tr.Track(v.Proc().Name()), "writeback-stall")
	}
	for d.inWrite >= d.cfg.MaxDirtyWrites {
		d.stats.WriteStalls++
		v.Wait(&d.wcond)
	}
	stall.End()
	done := d.service(d.cfg.WriteLatency)
	d.inWrite++
	d.stats.Writes++
	d.stats.WriteTime += int64(done - v.Now())
	if d.tr != nil {
		d.tr.Emit(d.trTrack, "ssd-write", v.Now(), int64(done-v.Now()), int64(slot))
	}
	d.eng.After(int64(done-v.Now()), func() {
		d.inWrite--
		d.wcond.Broadcast(d.eng)
	})
	return nil
}

// referenceWritePage is the ZRAM write as a plain blocking call: the
// compression charge is a blocking Charge.
func (d *ZRAM) referenceWritePage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	lat := d.jittered(d.cfg.WriteLatency)
	d.stats.Writes++
	d.stats.WriteTime += lat
	d.store.Write(slot, vpn, version, d.class(vpn))
	if d.tr != nil {
		d.tr.Emit(d.tr.Track(v.Proc().Name()), "zram-write", v.Now(), lat, int64(slot))
	}
	v.Charge(lat)
	return nil
}
