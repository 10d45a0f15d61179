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
// resumed it, making execution fully deterministic. A proc suspended
// with Env.Suspend is continued without its coroutine: the engine runs
// its step inline, on whichever stack dispatches the wakeup, until the
// step hands the proc back.
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
	// cpuLeft is the CPU work of the current Charge or TryCharge not yet
	// run (Engine.charge).
	cpuLeft Duration

	// step is the continuation of a suspended proc (Env.Suspend), nil
	// otherwise. stepping is set while it runs, and stepPanic holds a
	// panic recovered from it until Suspend re-raises it.
	step      func() bool
	stepping  bool
	stepPanic any
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
	if p.stepping {
		// A step runs on a stack that is not this proc's coroutine.
		panic("sim: blocking call in a step")
	}
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
	done := v.TryCharge(d)
	for !done {
		v.proc.handoff()
		done = v.engine.charge(v.proc)
	}
}

// TryCharge is the non-blocking form of Charge. It reports true when all
// of d was charged in place. Otherwise it parks the proc at the first
// quantum that has to wait for other events and returns false; the rest
// of d is charged when the proc is continued. The caller must then
// return from its step, or call Suspend.
func (v *Env) TryCharge(d Duration) bool {
	if d < 0 {
		panic("sim: Charge with negative duration")
	}
	p := v.proc
	p.cpuTime += d
	p.cpuLeft = d
	return v.engine.charge(p)
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
	if !v.TrySleepUntil(t) {
		v.proc.handoff()
	}
}

// TrySleepUntil is the non-blocking form of SleepUntil. It reports true
// when no event is due before t and time advanced to t in place.
// Otherwise it parks the proc until t and returns false; the caller must
// then return from its step, or call Suspend.
func (v *Env) TrySleepUntil(t Time) bool {
	e, p := v.engine, v.proc
	if t < e.now {
		t = e.now
	}
	e.setRunnable(p, false)
	if e.canAdvanceTo(t) {
		// No event is due before the wakeup: skip the scheduler round trip
		// and advance time in place (see Engine.canAdvanceTo).
		e.now = t
		return true
	}
	p.state = stateSleeping
	e.pushProc(t, p)
	return false
}

// Yield reschedules the proc at the current time, letting any already
// pending same-time events run first.
func (v *Env) Yield() {
	v.TryYield()
	v.proc.handoff()
}

// TryYield is the non-blocking form of Yield: it parks the proc behind
// the events already pending at the current time and returns at once.
// The caller must then return from its step, or call Suspend.
func (v *Env) TryYield() {
	e, p := v.engine, v.proc
	p.state = stateReady
	e.pushProc(e.now, p)
}

// Wait blocks the proc until c is signalled. The proc does not consume CPU
// while waiting.
func (v *Env) Wait(c *Cond) {
	v.TryWait(c)
	v.proc.handoff()
}

// TryWait is the non-blocking form of Wait: it parks the proc on c and
// returns at once. The proc is continued once c is signalled. The caller
// must then return from its step, or call Suspend.
func (v *Env) TryWait(c *Cond) {
	e, p := v.engine, v.proc
	e.setRunnable(p, false)
	p.state = stateWaiting
	c.enqueue(p)
}

// Suspend continues the proc without its coroutine until step hands it
// back. The proc must already be parked, by a TryCharge or TrySleepUntil
// that returned false, or by TryWait or TryYield. At each wakeup the
// engine charges the proc's leftover CPU quanta and then runs step,
// inline on whichever stack dispatches the wakeup, so a wakeup costs no
// coroutine switch. step must not block: it parks the proc again with
// one of the Try calls and returns true, or returns false to resume the
// proc here, where Suspend returns. A panic in step is re-raised from
// Suspend.
func (v *Env) Suspend(step func() bool) {
	p := v.proc
	if p.state == stateRunning {
		panic("sim: Suspend of a proc that is not parked")
	}
	p.step = step
	p.handoff()
	p.step = nil
	if r := p.stepPanic; r != nil {
		p.stepPanic = nil
		panic(r)
	}
}

// WaitFor blocks until pred() is true, re-checking each time c is
// signalled. The predicate is evaluated with the proc holding control.
func (v *Env) WaitFor(c *Cond, pred func() bool) {
	for !pred() {
		v.Wait(c)
	}
}
