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
