package sim

import "fmt"

// DefaultQuantum is the CPU accounting quantum. Charged CPU work is split
// into chunks of at most this size so that the processor-sharing dilation
// factor tracks changes in the runnable set.
const DefaultQuantum Duration = 250 * Microsecond

// Engine is a deterministic discrete-event simulator. Create one with
// NewEngine, spawn procs, then call Run. An Engine must not be shared
// between host goroutines.
//
// Each proc is a coroutine (iter.Pull) driven by Run, so exactly one of
// Run or one proc executes at any time. A proc that parks runs the
// dispatch loop itself: inline callbacks run on its stack, and when the
// next wakeup is its own it keeps running without a switch. Otherwise
// it records the woken proc in next and yields to Run, which resumes
// that proc: a context switch is one coroutine yield and one resume.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	cpus    int
	quantum Duration

	procs    []*Proc
	live     int // procs not yet finished, excluding daemons
	runnable int // procs currently consuming CPU

	running *Proc // proc holding control right now, nil when engine runs
	stopped bool
	failure error

	// next is the proc Run resumes when the running coroutine yields;
	// nil once the simulation is over (finished, stopped, or deadlocked).
	next *Proc
	// shuttingDown stops a killed proc's completion from dispatching
	// while shutdown unwinds killed procs one at a time.
	shuttingDown bool
}

// NewEngine returns an engine modelling cpus hardware contexts.
func NewEngine(cpus int) *Engine {
	if cpus <= 0 {
		panic("sim: NewEngine requires at least one CPU")
	}
	return &Engine{cpus: cpus, quantum: DefaultQuantum}
}

// SetQuantum overrides the CPU accounting quantum (useful in tests).
func (e *Engine) SetQuantum(q Duration) {
	if q <= 0 {
		panic("sim: quantum must be positive")
	}
	e.quantum = q
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Current reports the proc holding control right now, or nil when the
// engine itself (or an After callback) is running. Verification hooks use
// it to assert lock-discipline invariants against the acting proc.
func (e *Engine) Current() *Proc { return e.running }

// CPUs reports the number of hardware contexts.
func (e *Engine) CPUs() int { return e.cpus }

// DebugProcs reports each proc's name and state (development aid).
func (e *Engine) DebugProcs() []string {
	var out []string
	for _, p := range e.procs {
		out = append(out, fmt.Sprintf("%s=%v cpu=%v", p.name, p.state, p.cpuTime))
	}
	return out
}

// dilation returns the processor-sharing slowdown for one unit of CPU work
// given the current runnable set: max(1, runnable/cpus), as a rational
// applied to a duration.
func (e *Engine) dilate(d Duration) Duration {
	if e.runnable <= e.cpus {
		return d
	}
	return d * int64(e.runnable) / int64(e.cpus)
}

type event struct {
	at   Time
	seq  uint64
	proc *Proc  // resume this proc, or
	fn   func() // run this callback in engine context
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap is deliberately not used: its interface methods box every
// event into an `any`, which made the event queue the simulator's dominant
// allocation site (push and pop together accounted for ~99% of all heap
// objects in a trial).
type eventHeap []event

// eventLess orders events by time, ties broken by push sequence (FIFO).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting a hole up instead of swapping (one write per
// level instead of three).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes the minimum, sifting a hole down for the displaced last
// element.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the callback/proc references
	*h = s[:n]
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && eventLess(&s[r], &s[c]) {
				c = r
			}
			if !eventLess(&s[c], &last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	return top
}

func (e *Engine) push(ev event) uint64 {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
	return ev.seq
}

// pushProc schedules a wakeup for p and records its identity so that stale
// wakeups (from superseded sleeps) are ignored.
func (e *Engine) pushProc(t Time, p *Proc) {
	p.eventSeq = e.push(event{at: t, proc: p})
}

// canAdvanceTo reports whether the running proc may move virtual time
// straight to t without yielding: the engine is not stopped and no pending
// event is due at or before t. When it holds, a scheduler round trip would
// pop only the caller's own wakeup, so Charge/SleepUntil skip the event
// push and the dispatch loop and advance e.now in place. An event due exactly
// at t forces the slow path — it was pushed earlier, carries a smaller
// sequence number, and must run first for event order to stay identical.
func (e *Engine) canAdvanceTo(t Time) bool {
	return !e.stopped && (len(e.events) == 0 || e.events[0].at > t)
}

// After schedules fn to run in engine context at now+d. fn must not block;
// it may signal conds and spawn procs. Use procs for anything stateful.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: After with negative delay")
	}
	e.push(event{at: e.now + Time(d), fn: fn})
}

// Spawn creates a proc running fn and schedules it to start at the current
// time. Daemon procs do not keep Run alive; they are terminated when all
// non-daemon procs have finished.
func (e *Engine) Spawn(name string, daemon bool, fn func(*Env)) *Proc {
	p := &Proc{
		name:   name,
		daemon: daemon,
		engine: e,
		state:  stateReady,
	}
	e.procs = append(e.procs, p)
	if !daemon {
		e.live++
	}
	p.start(fn)
	// Procs contribute to CPU contention only while charging CPU work;
	// a freshly spawned proc is scheduled but not yet consuming CPU.
	e.pushProc(e.now, p)
	return p
}

// setRunnable updates the contention accounting for p.
func (e *Engine) setRunnable(p *Proc, r bool) {
	if p.countsCPU == r {
		return
	}
	p.countsCPU = r
	if r {
		e.runnable++
	} else {
		e.runnable--
	}
}

// Run executes events until every non-daemon proc has finished, then
// terminates daemons. It returns a non-nil error if a proc panicked or if
// the simulation deadlocked (no events pending while procs still live).
// A panic outside any proc body — in an After callback run while a proc
// finishes, say — propagates to Run's caller.
func (e *Engine) Run() error {
	e.dispatch()
	for e.next != nil {
		p := e.next
		e.next = nil
		p.resume()
	}
	e.shutdown()
	return e.failure
}

// Stop ends the simulation at the current time. Pending procs are killed by
// Run's shutdown phase. Safe to call from engine callbacks and procs.
func (e *Engine) Stop() { e.stopped = true }

// dispatch picks the next schedulable entity. The caller must have fully
// recorded its own state first (parked, finished, or — for Run — not yet
// started). Inline callbacks run on the caller's stack; when a proc's
// wakeup pops, dispatch records it in e.next and returns so the caller
// can yield (or, in Run, resume it). When the simulation is over e.next
// stays nil.
func (e *Engine) dispatch() { e.dispatchFrom(nil) }

// dispatchFrom is dispatch with a self-wake fast path: when the next
// wakeup belongs to self (the proc currently parking), it reports true
// and self simply keeps running — no coroutine switch at all. This is
// common when inline After callbacks interleave with a proc that is
// otherwise the earliest sleeper.
func (e *Engine) dispatchFrom(self *Proc) bool {
	e.running = nil
	for {
		if e.stopped || e.live == 0 {
			return false
		}
		if len(e.events) == 0 {
			e.failure = e.deadlockError()
			return false
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: event scheduled in the past")
		}
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.proc.state == stateDone || ev.proc.eventSeq != ev.seq {
			continue // stale wakeup
		}
		e.running = ev.proc
		ev.proc.state = stateRunning
		if ev.proc == self {
			return true
		}
		e.next = ev.proc
		return false
	}
}

// finish records proc completion and dispatches the next entity. Runs on
// the finishing proc's coroutine, as the last step of its body.
func (e *Engine) finish(p *Proc) {
	e.setRunnable(p, false)
	if !p.daemon {
		e.live--
	}
	if p.err != nil && e.failure == nil {
		e.failure = p.err
		e.stopped = true
	}
	p.done.broadcastLocked(e)
	if e.shuttingDown {
		return
	}
	e.dispatch()
}

// shutdown terminates all unfinished procs after the main phase exits.
// Each killed proc is resumed once and unwinds on its own coroutine
// before the next one is resumed.
func (e *Engine) shutdown() {
	e.shuttingDown = true
	for _, p := range e.procs {
		if p.state == stateDone {
			continue
		}
		p.killed = true
		e.running = p
		p.resume()
	}
	e.running = nil
}

func (e *Engine) deadlockError() error {
	msg := "sim: deadlock —"
	for _, p := range e.procs {
		if p.state != stateDone && !p.daemon {
			msg += " " + p.name + "(" + p.state.String() + ")"
		}
	}
	return fmt.Errorf("%s with no pending events at %v", msg, e.now)
}
