package sim

import (
	"errors"
	"strings"
	"testing"
)

// A typed error panicked inside a step that runs inline is re-raised on
// the proc's coroutine: the body's deferred calls see it, and Run's
// error still matches it with errors.As.
func TestStepPanicReraisedOnCoroutine(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var inline, sawPanic bool
	e.Spawn("bad", false, func(v *Env) {
		defer func() {
			r := recover()
			_, sawPanic = r.(*codedError)
			panic(r)
		}()
		v.TryWait(&c)
		v.Suspend(func() bool {
			inline = v.proc.stepping
			panic(&codedError{code: 9})
		})
		t.Error("Suspend returned after its step panicked")
	})
	e.After(Millisecond, func() { c.Signal(e) })
	err := e.Run()
	var ce *codedError
	if !errors.As(err, &ce) || ce.code != 9 {
		t.Fatalf("Run() = %v, want an error matching *codedError 9", err)
	}
	if !inline || !sawPanic {
		t.Fatalf("step ran inline %v, body saw the panic %v", inline, sawPanic)
	}
}

// A proc that is suspended when the engine stops is unwound at shutdown
// on its coroutine, running its body's deferred calls; its step never
// runs again.
func TestSuspendedProcUnwoundAtShutdown(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var unwound, stepped bool
	p := e.Spawn("parked", true, func(v *Env) {
		defer func() { unwound = true }()
		v.TryWait(&c) // never signalled
		v.Suspend(func() bool { stepped = true; return false })
		t.Error("Suspend returned at shutdown")
	})
	e.Spawn("work", false, func(v *Env) { v.Charge(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !unwound || stepped || !p.Finished() {
		t.Fatalf("unwound %v, stepped %v, finished %v", unwound, stepped, p.Finished())
	}
}

// Inside a step, Current is the stepping proc; an After callback
// dispatched right after the step sees nil.
func TestCurrentDuringStep(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var inStep, inCallback *Proc
	var inline bool
	callbackRan := false
	var p *Proc
	p = e.Spawn("stepper", false, func(v *Env) {
		v.TryWait(&c)
		v.Suspend(func() bool {
			if callbackRan {
				return false
			}
			inline = v.proc.stepping
			inStep = e.Current()
			e.After(0, func() { inCallback, callbackRan = e.Current(), true })
			v.TryWait(&c)
			return true
		})
	})
	e.Spawn("signaller", false, func(v *Env) {
		v.Sleep(Millisecond)
		c.Signal(e)
		v.Sleep(Millisecond)
		c.Signal(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !inline || inStep != p {
		t.Fatalf("step ran inline %v with Current %v, want %v", inline, inStep, p)
	}
	if !callbackRan || inCallback != nil {
		t.Fatalf("callback ran %v with Current %v, want nil", callbackRan, inCallback)
	}
}

// A step runs the suspended proc's leftover CPU quanta first: a charge
// that parks mid-way finishes, at the time the blocking Charge gives,
// before the step sees the clock.
func TestSuspendedChargeMatchesCharge(t *testing.T) {
	run := func(suspend bool) (Time, Duration) {
		e := NewEngine(1)
		e.SetQuantum(100 * Microsecond)
		var end Time
		p := e.Spawn("w", false, func(v *Env) {
			if !suspend {
				v.Charge(950 * Microsecond)
				end = v.Now()
				return
			}
			if !v.TryCharge(950 * Microsecond) {
				v.Suspend(func() bool { end = v.Now(); return false })
			}
		})
		e.Spawn("rival", false, func(v *Env) { v.Charge(300 * Microsecond) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end, p.CPUTime()
	}
	wantEnd, wantCPU := run(false)
	gotEnd, gotCPU := run(true)
	if gotEnd != wantEnd || gotCPU != wantCPU {
		t.Fatalf("suspended charge ended at %v with %v CPU, blocking at %v with %v", gotEnd, gotCPU, wantEnd, wantCPU)
	}
	if wantEnd <= Time(950*Microsecond) {
		t.Fatalf("charge ended at %v: the rival never contended", wantEnd)
	}
}

// Misuse fails the proc instead of corrupting the schedule: a blocking
// call that has to park inside a step, a step that claims to have parked
// and did not, and a Suspend of a proc that is not parked.
func TestSuspendMisuseFailsProc(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(v *Env, c *Cond)
		want string
	}{
		{"blocking call in step", func(v *Env, c *Cond) {
			v.TryWait(c)
			v.Suspend(func() bool { v.Sleep(Millisecond); return true })
		}, "blocking call in a step"},
		{"step not parked", func(v *Env, c *Cond) {
			v.TryWait(c)
			v.Suspend(func() bool { return true })
		}, "without parking"},
		{"suspend not parked", func(v *Env, c *Cond) {
			v.Suspend(func() bool { return false })
		}, "not parked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			var c Cond
			e.Spawn("p", false, func(v *Env) { tc.body(v, &c) })
			e.After(Millisecond, func() { c.Signal(e) })
			e.After(Millisecond+1, func() {}) // the sleep in a step must park
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// Cond keeps FIFO order while its queue never drains, across the
// compaction that reuses its backing array.
func TestCondFIFOWithoutDraining(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	const n = 40
	var order []int
	for i := 0; i < n; i++ {
		e.Spawn("waiter", false, func(v *Env) {
			v.Sleep(Duration(i) * Microsecond)
			v.Wait(&c)
			order = append(order, i)
		})
	}
	e.Spawn("signaller", false, func(v *Env) {
		// One signal per waiter, each after the next waiter has queued,
		// so the queue holds a waiter at every Signal until the last.
		v.Sleep(Microsecond / 2)
		for i := 0; i < n; i++ {
			v.Sleep(Microsecond)
			c.Signal(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range order {
		if w != i {
			t.Fatalf("wake order = %v, want 0..%d", order, n-1)
		}
	}
	if len(order) != n || c.Waiters() != 0 {
		t.Fatalf("%d woken, %d still waiting", len(order), c.Waiters())
	}
}
