package policy

import (
	"fmt"
	"strings"
	"testing"

	"mglrusim/internal/sim"
)

func TestLockMutualExclusion(t *testing.T) {
	e := sim.NewEngine(4)
	var l LRULock
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", false, func(v *sim.Env) {
			for k := 0; k < 5; k++ {
				l.Acquire(v)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				v.Charge(100 * sim.Microsecond) // yield while holding
				inside--
				l.Release(v)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d inside", maxInside)
	}
	if l.Acquisitions != 20 {
		t.Fatalf("acquisitions = %d, want 20", l.Acquisitions)
	}
	if l.Contended == 0 {
		t.Fatal("expected contention with 4 procs on 1 lock")
	}
}

func TestLockReentrant(t *testing.T) {
	e := sim.NewEngine(1)
	var l LRULock
	e.Spawn("w", false, func(v *sim.Env) {
		l.Acquire(v)
		l.Acquire(v) // reentrant
		if !l.Held(v) {
			t.Error("lock not held")
		}
		l.Release(v)
		if !l.Held(v) {
			t.Error("outer level should still hold")
		}
		l.Release(v)
		if l.Held(v) {
			t.Error("lock should be free")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseByNonOwnerPanics(t *testing.T) {
	e := sim.NewEngine(2)
	var l LRULock
	e.Spawn("owner", false, func(v *sim.Env) {
		l.Acquire(v)
		v.Sleep(1 * sim.Millisecond)
		l.Release(v)
	})
	e.Spawn("thief", false, func(v *sim.Env) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic releasing unheld lock")
			}
			panic("rethrow to end proc") // proc must end via panic path
		}()
		l.Release(v)
	})
	// The thief panics; Run reports the error.
	if err := e.Run(); err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

func TestLockWaitTimeAccounted(t *testing.T) {
	e := sim.NewEngine(2)
	var l LRULock
	e.Spawn("holder", false, func(v *sim.Env) {
		l.Acquire(v)
		v.Charge(5 * sim.Millisecond)
		l.Release(v)
	})
	e.Spawn("waiter", false, func(v *sim.Env) {
		v.Sleep(1 * sim.Millisecond) // let holder take it first
		l.Acquire(v)
		l.Release(v)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if l.WaitTime <= 0 {
		t.Fatal("wait time not accounted")
	}
}

func TestLockFIFOHandover(t *testing.T) {
	e := sim.NewEngine(4)
	var l LRULock
	var order []int
	e.Spawn("holder", false, func(v *sim.Env) {
		l.Acquire(v)
		v.Charge(2 * sim.Millisecond)
		l.Release(v)
	})
	for i := 0; i < 3; i++ {
		i := i
		d := sim.Duration(i+1) * 100 * sim.Microsecond
		e.Spawn("w", false, func(v *sim.Env) {
			v.Sleep(d) // stagger arrival
			l.Acquire(v)
			order = append(order, i)
			l.Release(v)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("handover order = %v, want arrival order", order)
	}
}

// lockScenario runs procs that take the lock, hold it across a charge
// and release it, re-entering it on some rounds; procs whose bit is set
// in try do so as suspended procs through TryAcquire. Procs with no nap
// take the lock again at once, ahead of the waiter the release woke, so
// that waiter finds it held and queues again. It returns the order of
// acquisitions with their times, and the lock's counters.
func lockScenario(try uint) string {
	e := sim.NewEngine(2)
	var l LRULock
	var log strings.Builder
	for i := 0; i < 5; i++ {
		hold := sim.Duration(40+30*i) * sim.Microsecond
		nap := sim.Duration(25*(i%3)) * sim.Microsecond
		acquired := func(v *sim.Env, round int) {
			fmt.Fprintf(&log, "%d p%d round %d\n", v.Now(), i, round)
		}
		if try&(1<<i) == 0 {
			e.Spawn(fmt.Sprint("p", i), false, func(v *sim.Env) {
				for round := 0; round < 6; round++ {
					l.Acquire(v)
					if round%3 == 1 {
						l.Acquire(v)
						l.Release(v)
					}
					acquired(v, round)
					v.Charge(hold)
					l.Release(v)
					if nap > 0 {
						v.Sleep(nap)
					}
				}
			})
			continue
		}
		e.Spawn(fmt.Sprint("p", i), false, func(v *sim.Env) {
			var w LockWait
			round, at := 0, 0
			step := func() bool {
				for round < 6 {
					switch at {
					case 0: // take the lock
						if !l.TryAcquire(v, &w) {
							return true
						}
						if round%3 == 1 {
							if !l.TryAcquire(v, &w) {
								panic("a reentrant TryAcquire parked")
							}
							l.Release(v)
						}
						acquired(v, round)
						at = 1
						if !v.TryCharge(hold) {
							return true
						}
					case 1: // held across the charge
						l.Release(v)
						at, round = 0, round+1
						if nap > 0 && !v.TrySleepUntil(v.Now()+sim.Time(nap)) {
							return true
						}
					}
				}
				return false
			}
			if step() {
				v.Suspend(step)
			}
		})
	}
	if err := e.Run(); err != nil {
		return err.Error()
	}
	fmt.Fprintf(&log, "acquisitions %d contended %d wait %d\n", l.Acquisitions, l.Contended, l.WaitTime)
	return log.String()
}

// TestTryAcquireMatchesAcquire runs contended lock scenarios with every
// mix of procs using Acquire and TryAcquire: the acquisition order and
// times, Contended, WaitTime and Acquisitions all match the scenario
// where every proc blocks in Acquire.
func TestTryAcquireMatchesAcquire(t *testing.T) {
	want := lockScenario(0)
	if strings.Contains(want, "contended 0 ") {
		t.Fatalf("the scenario has no contention:\n%s", want)
	}
	for try := uint(1); try < 1<<5; try++ {
		if got := lockScenario(try); got != want {
			t.Fatalf("procs %05b on TryAcquire: got\n%s\nwant\n%s", try, got, want)
		}
	}
}
