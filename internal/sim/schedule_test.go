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
func scheduleScript() string {
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

// TestEngineScheduleDigest pins the engine's step order byte for byte:
// which proc or callback runs, at what virtual time, in what order.
// Every figure and trace rests on that order, so an engine change must
// leave this digest as it is.
func TestEngineScheduleDigest(t *testing.T) {
	log := scheduleScript()
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
	if again := scheduleScript(); again != log {
		t.Fatal("two runs of the script logged different steps")
	}
	sum := sha256.Sum256([]byte(log))
	if got := hex.EncodeToString(sum[:]); got != scheduleDigest {
		t.Fatalf("schedule digest = %s, want %s\n%s", got, scheduleDigest, log)
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
