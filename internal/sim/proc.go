//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateSleeping // waiting for a scheduled wakeup (CPU chunk or I/O)
	stateWaiting  // waiting on a Cond, no event pending
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateWaiting:
		return "waiting"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// killSignal is panicked inside a proc's coroutine to unwind it when the
// engine shuts down; the proc wrapper recovers it.
type killSignalType struct{}

var killSignal = killSignalType{}

// IsKillSignal reports whether a recovered panic value is the engine's
// shutdown signal. Procs that install their own recover (to convert panics
// into classified errors) must re-panic kill signals untouched so the
// engine can unwind them normally.
func IsKillSignal(r any) bool {
	_, ok := r.(killSignalType)
	return ok
}

// Proc is a simulated task: a coroutine that runs only while Run has
// resumed it, making execution fully deterministic.
type Proc struct {
	name   string
	daemon bool
	engine *Engine

	// resume runs the coroutine until its next yield or its end; yield,
	// called from handoff, returns control to resume's caller.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	state     procState
	countsCPU bool   // contributes to CPU contention right now
	eventSeq  uint64 // identity of the pending wakeup event
	killed    bool
	err       error

	done Cond // broadcast when the proc finishes

	// cpuTime accumulates the proc's charged (undilated) CPU work.
	cpuTime Duration
}

// Name reports the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// CPUTime reports total CPU work charged by the proc, before dilation.
func (p *Proc) CPUTime() Duration { return p.cpuTime }

// Done exposes a Cond broadcast when the proc finishes; procs can Wait on it.
func (p *Proc) Done() *Cond { return &p.done }

// Finished reports whether the proc has completed.
func (p *Proc) Finished() bool { return p.state == stateDone }

// start makes p a coroutine running fn. Its body first runs at the first
// resume; iter.Pull re-raises in the resumer any panic that escapes top.
func (p *Proc) start(fn func(*Env)) {
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.top(fn)
	})
}

// top is the coroutine body wrapping the user function.
func (p *Proc) top(fn func(*Env)) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case killSignalType:
				// Engine shutdown; not a failure.
			case error:
				// Preserve typed panics (fault.HardError, vmm.OOMError,
				// core.LivelockError) so callers can errors.As-classify
				// transient trial failures.
				p.err = fmt.Errorf("sim: proc %q panicked: %w", p.name, e)
			default:
				p.err = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
		}
		p.state = stateDone
		p.engine.finish(p)
	}()
	if p.killed {
		return
	}
	fn(&Env{engine: p.engine, proc: p})
}

// handoff runs the dispatch loop on this coroutine and, unless the proc's
// own wakeup is next, yields to Run until resumed. The caller must have
// recorded the proc's parked state and any wakeup event before calling.
// On resume during shutdown it unwinds via killSignal.
func (p *Proc) handoff() {
	if p.engine.dispatchFrom(p) {
		return // our own wakeup was next; no switch needed
	}
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal)
	}
	p.state = stateRunning
}

// Env is the interface a proc body uses to interact with virtual time.
// It is only valid within the proc it was created for.
type Env struct {
	engine *Engine
	proc   *Proc
}

// Now reports the current virtual time.
func (v *Env) Now() Time { return v.engine.now }

// Engine exposes the engine, e.g. to spawn further procs or signal conds.
func (v *Env) Engine() *Engine { return v.engine }

// Proc reports the proc this Env belongs to.
func (v *Env) Proc() *Proc { return v.proc }

// Charge consumes d nanoseconds of CPU work under processor-sharing
// contention. The work is split into quanta so dilation follows changes in
// the runnable set. Virtual time advances by at least d.
func (v *Env) Charge(d Duration) {
	if d < 0 {
		panic("sim: Charge with negative duration")
	}
	e, p := v.engine, v.proc
	p.cpuTime += d
	q := e.quantum
	for d > 0 {
		chunk := d
		if chunk > q {
			chunk = q
		}
		d -= chunk
		e.setRunnable(p, true)
		wall := e.dilate(chunk)
		deadline := e.now + Time(wall)
		if e.canAdvanceTo(deadline) {
			// Nothing can run before this quantum completes (the runnable
			// set, and with it the dilation, cannot change without an
			// event): advance time in place instead of a scheduler round
			// trip through the event heap.
			e.now = deadline
			continue
		}
		p.state = stateSleeping
		e.pushProc(deadline, p)
		p.handoff()
	}
}

// Sleep blocks the proc for d nanoseconds without consuming CPU
// (for example, waiting on device I/O).
func (v *Env) Sleep(d Duration) {
	if d < 0 {
		panic("sim: Sleep with negative duration")
	}
	v.SleepUntil(v.engine.now + Time(d))
}

// SleepUntil blocks the proc, not consuming CPU, until virtual time t.
func (v *Env) SleepUntil(t Time) {
	e, p := v.engine, v.proc
	if t < e.now {
		t = e.now
	}
	e.setRunnable(p, false)
	if e.canAdvanceTo(t) {
		// No event is due before the wakeup: skip the scheduler round trip
		// and advance time in place (see Engine.canAdvanceTo).
		e.now = t
		return
	}
	p.state = stateSleeping
	e.pushProc(t, p)
	p.handoff()
}

// Yield reschedules the proc at the current time, letting any already
// pending same-time events run first.
func (v *Env) Yield() {
	e, p := v.engine, v.proc
	p.state = stateReady
	e.pushProc(e.now, p)
	p.handoff()
}

// Wait blocks the proc until c is signalled. The proc does not consume CPU
// while waiting.
func (v *Env) Wait(c *Cond) {
	e, p := v.engine, v.proc
	e.setRunnable(p, false)
	p.state = stateWaiting
	c.waiters = append(c.waiters, p)
	p.handoff()
}

// WaitFor blocks until pred() is true, re-checking each time c is
// signalled. The predicate is evaluated with the proc holding control.
func (v *Env) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		v.Wait(c)
	}
}
