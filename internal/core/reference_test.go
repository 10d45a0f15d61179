package core

import (
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/vmm"
	"mglrusim/internal/workload"
)

// referenceThread is the workload interpreter as a plain blocking proc
// body: every flush is a blocking Charge and every barrier a blocking
// Await, so each wakeup resumes the thread's own coroutine. It is the
// reference the interpreter is held to (TestThreadMatchesReference).
func referenceThread(v *sim.Env, st workload.Stream, mgr *vmm.Manager, barrier *sim.Barrier,
	flushAt sim.Duration, readLat, writeLat *stats.LatencyRecorder, tr *telemetry.Tracer) {
	var acc sim.Duration
	var reqStart sim.Time
	var reqClass workload.ReqClass
	var track telemetry.TrackID
	if tr != nil {
		track = tr.Track(v.Proc().Name())
	}
	flush := func() {
		if acc > 0 {
			v.Charge(acc)
			acc = 0
		}
	}
	var op workload.Op
	for st.Next(&op) {
		switch op.Kind {
		case workload.OpAccess:
			acc += op.CPU
			if !mgr.TryTouch(op.VPN, op.Write) {
				flush()
				mgr.Fault(v, op.VPN, op.Write)
			} else if acc >= flushAt {
				flush()
			}
		case workload.OpCompute:
			acc += op.CPU
			if acc >= flushAt {
				flush()
			}
		case workload.OpBarrier:
			flush()
			if tr != nil {
				tr.Instant(track, "barrier", 0)
			}
			barrier.Await(v)
		case workload.OpReqStart:
			flush()
			reqStart = v.Now()
			reqClass = op.Class
		case workload.OpReqEnd:
			flush()
			lat := int64(v.Now() - reqStart)
			if reqClass == workload.ReqRead {
				readLat.Record(lat)
			} else {
				writeLat.Record(lat)
			}
			if tr != nil {
				name := "req-write"
				if reqClass == workload.ReqRead {
					name = "req-read"
				}
				tr.Emit(track, name, reqStart, lat, lat)
			}
		}
	}
	flush()
}

// referenceAging is the aging daemon as a plain blocking proc body: a
// pass is one blocking Policy.Age, and the daemon polls with blocking
// Sleep and Yield calls, so each wakeup resumes its own coroutine. It is
// the reference the manager's daemon is held to
// (TestAgingMatchesReference).
func referenceAging(v *sim.Env, mgr *vmm.Manager, cfg vmm.Config, requested *bool) {
	pol := mgr.Policy()
	tr := mgr.Tracer()
	track := tr.Track("aging")
	poll := cfg.AgingPoll
	if poll <= 0 {
		poll = sim.Millisecond
	}
	lastProactive := v.Now()
	for {
		proactiveDue := cfg.ProactiveInterval > 0 &&
			v.Now()-lastProactive >= sim.Time(cfg.ProactiveInterval)
		if *requested || pol.NeedsAging() || proactiveDue {
			*requested = false
			if proactiveDue {
				lastProactive = v.Now()
			}
			var sp telemetry.Span
			if tr != nil {
				sp = tr.Begin(track, "aging-pass")
			}
			worked := pol.Age(v)
			workedArg := int64(0)
			if worked {
				workedArg = 1
			}
			sp.EndArg(workedArg)
			if audit := mgr.Auditor(); audit != nil {
				audit.AgingPass(v)
			}
			v.Yield()
			if !worked && !proactiveDue {
				v.Sleep(10 * poll)
			}
			continue
		}
		v.Sleep(poll)
	}
}
