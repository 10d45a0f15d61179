package mglru

import (
	"fmt"
	"strings"
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// How a walkScenario's aging daemon runs its passes.
const (
	daemonReference = iota // blocking referenceAge
	daemonAge              // blocking Age
	daemonStep             // suspended, through AgeStep
)

// walkScenario runs app procs that fault, touch, reclaim and age (so
// walks also start inline, wait out each other and contend for the
// lruvec lock) next to an aging daemon run the given way, and returns a
// log of every aging pass and app op with the time, then the final
// state. With the reference daemon the apps' own passes are reference
// passes too; Reclaim's always run Age.
func walkScenario(cfg Config, seed uint64, daemon int) string {
	const (
		regions = 6
		apps    = 3
	)
	pages := regions * pagetable.PTEsPerRegion
	g, k := attach(cfg, pages/8, regions, seed)
	e := sim.NewEngine(2)
	e.SetQuantum(20 * sim.Microsecond)
	var log strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&log, "%d %d-%d ", e.Now(), g.MinSeq(), g.MaxSeq())
		fmt.Fprintf(&log, format, args...)
		log.WriteByte('\n')
	}
	age := g.Age
	if daemon == daemonReference {
		age = g.referenceAge
	}
	for a := 0; a < apps; a++ {
		rng := sim.NewRNG(seed).Stream(uint64(a))
		span := pages / apps
		e.Spawn(fmt.Sprintf("app-%d", a), false, func(v *sim.Env) {
			for i := 0; i < 400; i++ {
				if i%40 == 39 {
					logf("app-%d age %v", a, age(v))
				}
				vpn := pagetable.VPN(a*span + rng.Intn(span))
				if k.Touch(vpn, rng.Bool(0.3)) {
					v.Charge(sim.Duration(1+rng.Intn(30)) * sim.Microsecond)
					continue
				}
				for k.M.FreePages() == 0 {
					if n := g.Reclaim(v, 4); n == 0 {
						v.Sleep(50 * sim.Microsecond)
					}
				}
				k.FaultIn(v, g, vpn, false, rng.Bool(0.2))
				logf("app-%d fault %d", a, vpn)
			}
		})
	}
	pass := func(worked bool) { logf("pass %v", worked) }
	// due reports whether a pass is due: on need, on request, and every
	// third poll.
	polls := 0
	due := func() bool {
		polls++
		if g.NeedsAging() || k.AgingRequests > 0 || polls%3 == 0 {
			k.AgingRequests = 0
			return true
		}
		return false
	}
	e.Spawn("aging", true, func(v *sim.Env) {
		if daemon == daemonStep {
			var w policy.AgeWalk
			walking := false
			step := func() bool {
				for {
					if walking {
						if g.AgeStep(v, &w) {
							return true
						}
						pass(w.Worked)
						walking = false
						v.TryYield()
						return true
					}
					if due() {
						w, walking = policy.AgeWalk{}, true
						continue
					}
					if !v.TrySleepUntil(v.Now() + sim.Time(300*sim.Microsecond)) {
						return true
					}
				}
			}
			step()
			v.Suspend(step)
		}
		for {
			if due() {
				pass(age(v))
				v.Yield()
				continue
			}
			v.Sleep(300 * sim.Microsecond)
		}
	})
	err := e.Run()
	acq, cont, wait := g.LockStats()
	fmt.Fprintf(&log, "err=%v now=%d stats=%+v lock=%d/%d/%d evicted=%v\n",
		err, e.Now(), g.Stats(), acq, cont, wait, k.EvictOrder)
	return log.String()
}

// TestAgeStepMatchesReference holds the resumable walk to the blocking
// reference walk: an aging daemon running its passes through AgeStep,
// or through the blocking Age, logs the same passes, ops, times and
// final state as one running referenceAge, for every scan variant.
func TestAgeStepMatchesReference(t *testing.T) {
	for _, vc := range []struct {
		name string
		cfg  Config
	}{
		{"bloom", Default()},
		{"scan-all", ScanAll()},
		{"scan-none", ScanNone()},
		{"scan-rand", ScanRand(0.5)},
		{"gen14", Gen14()},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			want := walkScenario(vc.cfg, seed, daemonReference)
			if !strings.Contains(want, "pass true") || !strings.Contains(want, "err=<nil>") {
				t.Fatalf("%s seed %d: the scenario ran no useful pass or failed:\n%s", vc.name, seed, want[max(0, len(want)-400):])
			}
			for _, d := range []int{daemonAge, daemonStep} {
				if got := walkScenario(vc.cfg, seed, d); got != want {
					t.Errorf("%s seed %d daemon %d: log differs from the reference walk's:\n%s", vc.name, seed, d, firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(g), len(w))
}
