package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// scheduleDigest is the SHA-256 of scheduleScript's step log.
const scheduleDigest = "ef8b315e8b67e7868d8a7a3f266ae7be48914200915cd44ca124a6538737c770"

// scheduleScript runs a fixed scenario that reaches every engine
// transition and returns its step log: one line per step with the
// virtual time, the proc holding control ("-" in engine context) and
// the step. The log ends with Run's error, the final time and every
// proc's state and CPU time.
//
// The scenario: three procs on two CPUs charge, sleep and yield, signal
// a Cond, meet at a Barrier and finish a WaitGroup; Cond waiters are
// released by Signal and Broadcast; After callbacks fall due at the same
// instant as proc wakeups, before and after them in push order; procs
// are spawned from a proc and from a callback; a daemon is killed at
// shutdown; and Stop kills a sleeping proc and a proc never started.
//
// With suspend set, procs a, b and c and the Cond waiters run the same
// steps as suspended procs: TryCharge, TryWait and the barrier's
// Arrive/Passed in a step, handing back to the coroutine to sleep, to
// yield and to finish.
func scheduleScript(suspend bool) string {
	e := NewEngine(2)
	e.SetQuantum(100 * Microsecond)
	var log strings.Builder
	step := func(format string, args ...any) {
		name := "-"
		if p := e.Current(); p != nil {
			name = p.Name()
		}
		fmt.Fprintf(&log, "%d %s %s\n", e.Now(), name, fmt.Sprintf(format, args...))
	}

	var cond Cond
	bar := NewBarrier(3)
	var wg WaitGroup
	wg.Add(3)
	for i, name := range []string{"a", "b", "c"} {
		if suspend {
			e.Spawn(name, false, func(v *Env) { suspendedWorker(v, i, step, &cond, bar, &wg) })
			continue
		}
		e.Spawn(name, false, func(v *Env) {
			for it := 0; it < 4; it++ {
				v.Charge(Duration(150*(i+1)+50*it) * Microsecond)
				step("charged %d", it)
				switch (i + it) % 3 {
				case 0:
					v.Sleep(Duration(70*(it+1)) * Microsecond)
					step("slept")
				case 1:
					v.Yield()
					step("yielded")
				case 2:
					step("signal %v", cond.Signal(v.Engine()))
				}
				if i == 0 && it == 1 {
					v.Engine().Spawn("a-child", false, func(cv *Env) {
						step("child start")
						cv.Charge(120 * Microsecond)
						step("child end")
					})
				}
			}
			step("barrier round %d", bar.Await(v))
			v.Charge(Duration(40*(i+1)) * Microsecond)
			wg.DoneOne(v.Engine())
			step("done")
		})
	}
	for _, name := range []string{"w1", "w2", "w3"} {
		if suspend {
			e.Spawn(name, false, func(v *Env) {
				k := 0
				v.TryWait(&cond)
				v.Suspend(func() bool {
					if v.proc.stepping {
						inlineSteps++
					}
					step("woken %d", k)
					if k++; k == 2 {
						return false
					}
					v.TryWait(&cond)
					return true
				})
			})
			continue
		}
		e.Spawn(name, false, func(v *Env) {
			for k := 0; k < 2; k++ {
				v.Wait(&cond)
				step("woken %d", k)
			}
		})
	}
	e.Spawn("joiner", false, func(v *Env) {
		wg.Wait(v)
		step("joined")
		for cond.Waiters() > 0 {
			step("broadcast %d", cond.Broadcast(v.Engine()))
			v.Yield()
		}
	})

	// A proc sleeping to exactly 300µs and 1ms, with callbacks due at the
	// same instants: pushed before its wakeup (they run first) and, from
	// cb-child, after it (runs second).
	e.After(300*Microsecond, func() {
		step("after-300")
		e.Spawn("cb-child", false, func(v *Env) {
			step("cb-child start")
			// Pushed after s's 1ms wakeup, so it runs after s wakes.
			v.Engine().After(700*Microsecond, func() { step("after-1ms second") })
			v.Charge(100 * Microsecond)
			step("cb-child end")
		})
	})
	e.Spawn("s", false, func(v *Env) {
		v.Sleep(300 * Microsecond)
		step("s woke 300")
		v.SleepUntil(Time(Millisecond))
		step("s woke 1ms")
	})
	e.After(200*Microsecond, func() {
		step("after-200")
		e.After(800*Microsecond, func() { step("after-1ms") })
	})

	e.Spawn("daemon", true, func(v *Env) {
		defer step("daemon unwound")
		for {
			v.Sleep(170 * Microsecond)
			step("tick")
		}
	})
	e.Spawn("late", false, func(v *Env) {
		defer step("late unwound")
		v.Sleep(Second)
		step("late woke")
	})
	e.Spawn("stopper", false, func(v *Env) {
		defer step("stopper unwound")
		v.Sleep(5 * Millisecond)
		v.Engine().Spawn("never", false, func(*Env) { step("never ran") })
		step("stop")
		v.Engine().Stop()
		v.Yield()
		step("stopper resumed")
	})

	err := e.Run()
	step("run err=%v", err)
	for _, s := range e.DebugProcs() {
		step("proc %s", s)
	}
	return log.String()
}

// inlineSteps counts the steps of scheduleScript's suspended procs that
// ran inline, off their own coroutines.
var inlineSteps int

// suspendedWorker is scheduleScript's worker i written as a suspended
// proc: its charges, Cond signals and barrier run in steps, and its
// sleeps, yields and end on its coroutine.
func suspendedWorker(v *Env, i int, step func(string, ...any), cond *Cond, bar *Barrier, wg *WaitGroup) {
	const (
		charge = iota
		charged
		onCoroutine // sleep or yield
		arrive
		await
		finish
		done
	)
	phase, it, round := charge, 0, 0
	next := func() {
		if i == 0 && it == 1 {
			v.Engine().Spawn("a-child", false, func(cv *Env) {
				step("child start")
				cv.Charge(120 * Microsecond)
				step("child end")
			})
		}
		it++
		phase = charge
	}
	run := func() bool {
		if v.proc.stepping {
			inlineSteps++
		}
		for {
			switch phase {
			case charge:
				if it == 4 {
					phase = arrive
					continue
				}
				phase = charged
				if !v.TryCharge(Duration(150*(i+1)+50*it) * Microsecond) {
					return true
				}
			case charged:
				step("charged %d", it)
				if (i+it)%3 != 2 {
					phase = onCoroutine
					return false
				}
				step("signal %v", cond.Signal(v.Engine()))
				next()
			case arrive:
				round = bar.Arrive(v.Engine())
				phase = await
			case await:
				if !bar.Passed(v, round) {
					return true
				}
				step("barrier round %d", round)
				phase = finish
				if !v.TryCharge(Duration(40*(i+1)) * Microsecond) {
					return true
				}
			case finish:
				wg.DoneOne(v.Engine())
				step("done")
				phase = done
				return false
			case onCoroutine, done:
				return false
			}
		}
	}
	for phase != done {
		if run() {
			v.Suspend(run)
		}
		if phase == onCoroutine {
			if (i+it)%3 == 0 {
				v.Sleep(Duration(70*(it+1)) * Microsecond)
				step("slept")
			} else {
				v.Yield()
				step("yielded")
			}
			next()
		}
	}
}

// TestEngineScheduleDigest pins the engine's step order byte for byte:
// which proc or callback runs, at what virtual time, in what order.
// Every figure and trace rests on that order, so an engine change must
// leave this digest as it is.
func TestEngineScheduleDigest(t *testing.T) {
	log := scheduleScript(false)
	for _, want := range []string{"after-300", "after-1ms", "after-1ms second", "cb-child end", "child end",
		"signal true", "broadcast", "barrier round 0", "joined", "daemon unwound",
		"late unwound", "stopper unwound", "run err=<nil>"} {
		if !strings.Contains(log, want) {
			t.Errorf("step log lacks %q", want)
		}
	}
	for _, never := range []string{"never ran", "late woke", "stopper resumed"} {
		if strings.Contains(log, never) {
			t.Errorf("step log has %q", never)
		}
	}
	if again := scheduleScript(false); again != log {
		t.Fatal("two runs of the script logged different steps")
	}
	sum := sha256.Sum256([]byte(log))
	if got := hex.EncodeToString(sum[:]); got != scheduleDigest {
		t.Fatalf("schedule digest = %s, want %s\n%s", got, scheduleDigest, log)
	}
}

// TestSuspendedScheduleDigest runs the script with its charging, waiting
// and barrier procs suspended: stepping them inline must not move a
// single step.
func TestSuspendedScheduleDigest(t *testing.T) {
	inlineSteps = 0
	log := scheduleScript(true)
	if inlineSteps == 0 {
		t.Error("no step ran inline")
	}
	sum := sha256.Sum256([]byte(log))
	if got := hex.EncodeToString(sum[:]); got != scheduleDigest {
		t.Fatalf("suspended schedule digest = %s, want %s\n%s", got, scheduleDigest, log)
	}
}

type codedError struct{ code int }

func (e *codedError) Error() string { return fmt.Sprintf("coded error %d", e.code) }

// A proc that panics with an error fails Run with an error that wraps it.
func TestProcTypedPanicIsMatchable(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", false, func(v *Env) {
		v.Charge(Millisecond)
		panic(&codedError{code: 7})
	})
	err := e.Run()
	var ce *codedError
	if !errors.As(err, &ce) || ce.code != 7 {
		t.Fatalf("Run() = %v, want an error matching *codedError 7", err)
	}
}

// A proc with its own recover must re-panic the kill signal; shutdown
// then unwinds it to the end, running every deferred call.
func TestOwnRecoverRepanicsKillSignal(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var sawKill, outerRan bool
	p := e.Spawn("guarded", true, func(v *Env) {
		defer func() { outerRan = true }()
		defer func() {
			if r := recover(); r != nil {
				if !IsKillSignal(r) {
					t.Errorf("recovered %v, want the kill signal", r)
				}
				sawKill = true
				panic(r)
			}
		}()
		v.Wait(&c) // never signalled
	})
	e.Spawn("work", false, func(v *Env) { v.Charge(Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawKill || !outerRan {
		t.Fatalf("kill unwound: saw kill %v, outer defer ran %v", sawKill, outerRan)
	}
	if !p.Finished() || e.Current() != nil {
		t.Fatalf("after Run: finished %v, current %v", p.Finished(), e.Current())
	}
}

// A proc spawned but not yet started when the engine stops is killed
// without running its body.
func TestKilledBeforeStartRunsNoBody(t *testing.T) {
	e := NewEngine(1)
	ran := false
	var late *Proc
	e.Spawn("stopper", false, func(v *Env) {
		late = v.Engine().Spawn("late", false, func(*Env) { ran = true })
		v.Engine().Stop()
		v.Yield()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a proc killed before its start ran its body")
	}
	if !late.Finished() {
		t.Fatal("killed proc not finished")
	}
}

// A callback that panics while a finishing proc dispatches runs on that
// proc's coroutine, past its body's recover; the panic must reach Run's
// caller (where a harness can recover it), not crash the process.
func TestCallbackPanicInFinishReachesRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("other", false, func(v *Env) { v.Sleep(2 * Millisecond) })
	e.Spawn("w", false, func(v *Env) {
		v.Sleep(Millisecond)
		v.Engine().After(0, func() { panic("callback boom") })
		// w finishes now; its finish dispatches the callback first.
	})
	defer func() {
		if r := recover(); r != "callback boom" {
			t.Fatalf("recovered %v, want the callback's panic", r)
		}
	}()
	err := e.Run()
	t.Fatalf("Run returned %v, want a panic", err)
}
