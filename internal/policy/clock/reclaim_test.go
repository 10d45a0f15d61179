package clock

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/zram"
)

// How a reclaimScenario's procs reclaim.
const (
	reclaimReference = iota // blocking referenceReclaim
	reclaimBlocking         // Reclaim
	reclaimStepped          // Reclaim, and kswapd suspended, through reclaimStep
)

// reclaimScenario runs app procs that fault, touch and reclaim directly
// next to a kswapd proc that reclaims below a watermark, with evictions
// writing to dev (none, an SSD whose writeback window makes them stall,
// or ZRAM, whose writes charge CPU), every reclaim the given way. It
// returns a log of every reclaim and fault with the time, then the
// final state: stats, lock counters, list lengths, eviction order and
// every shadow.
func reclaimScenario(seed uint64, dev string, mode int) string {
	const (
		regions = 4
		apps    = 3
	)
	pages := regions * pagetable.PTEsPerRegion
	frames := pages / 4
	c := New(DefaultConfig())
	k := policytest.New(frames, regions, seed)
	c.Attach(k)
	e := sim.NewEngine(2)
	e.SetQuantum(20 * sim.Microsecond)
	rng := sim.NewRNG(seed).Stream(99)
	switch dev {
	case "ssd":
		cfg := swap.DefaultSSDConfig()
		cfg.ReadLatency, cfg.WriteLatency = 100*sim.Microsecond, 400*sim.Microsecond
		cfg.QueueDepth, cfg.MaxDirtyWrites = 2, 2
		k.Dev = swap.NewSSD(cfg, e, rng)
	case "zram":
		k.Dev = swap.NewZRAM(swap.DefaultZRAMConfig(), rng, func(vpn int64) zram.ContentClass { return zram.ContentClass(vpn % 3) })
	}
	var log strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&log, "%d %d/%d ", e.Now(), c.ActiveLen(), c.InactiveLen())
		fmt.Fprintf(&log, format, args...)
		log.WriteByte('\n')
	}
	reclaim := c.Reclaim
	if mode == reclaimReference {
		reclaim = c.referenceReclaim
	}
	for a := 0; a < apps; a++ {
		rng := sim.NewRNG(seed).Stream(uint64(a))
		e.Spawn(fmt.Sprintf("app-%d", a), false, func(v *sim.Env) {
			for i := 0; i < 400; i++ {
				// A hot set half the size of memory, and a cold tail.
				vpn := pagetable.VPN(rng.Intn(frames / 2))
				if rng.Bool(0.4) {
					vpn = pagetable.VPN(rng.Intn(pages))
				}
				if k.Touch(vpn, rng.Bool(0.3)) {
					v.Charge(sim.Duration(1+rng.Intn(30)) * sim.Microsecond)
					continue
				}
				for k.M.FreePages() == 0 {
					n := reclaim(v, 4)
					logf("app-%d reclaim %d", a, n)
					if n == 0 {
						v.Sleep(50 * sim.Microsecond)
					}
				}
				if k.T.IsPresent(vpn) {
					continue // another app faulted it in meanwhile
				}
				k.FaultIn(v, c, vpn, false, false)
				logf("app-%d fault %d", a, vpn)
			}
		})
	}
	e.Spawn("kswapd", true, func(v *sim.Env) {
		if mode == reclaimStepped {
			var w reclaimWalk
			walking := false
			step := func() bool {
				for {
					if walking {
						if c.reclaimStep(v, &w) {
							return true
						}
						logf("kswapd reclaim %d", w.evicted)
						walking = false
						continue
					}
					if k.M.FreePages() < frames/8 {
						c.startReclaim(&w, 8)
						walking = true
						continue
					}
					if !v.TrySleepUntil(v.Now() + sim.Time(200*sim.Microsecond)) {
						return true
					}
				}
			}
			step()
			v.Suspend(step)
		}
		for {
			if k.M.FreePages() < frames/8 {
				logf("kswapd reclaim %d", reclaim(v, 8))
				continue
			}
			v.Sleep(200 * sim.Microsecond)
		}
	})
	err := e.Run()
	acq, cont, wait := c.LockStats()
	fmt.Fprintf(&log, "err=%v now=%d stats=%+v lock=%d/%d/%d evicted=%v\n",
		err, e.Now(), c.Stats(), acq, cont, wait, k.EvictOrder)
	vpns := make([]int, 0, len(k.Shadows))
	for vpn := range k.Shadows {
		vpns = append(vpns, int(vpn))
	}
	sort.Ints(vpns)
	for _, vpn := range vpns {
		fmt.Fprintf(&log, "shadow %d %+v\n", vpn, k.Shadows[pagetable.VPN(vpn)])
	}
	if k.Dev != nil {
		fmt.Fprintf(&log, "dev %+v\n", k.Dev.Stats())
	}
	return log.String()
}

// TestReclaimMatchesReference holds Clock's eviction pass, balance scan
// included, to the blocking reference pass: procs reclaiming through
// Reclaim, with kswapd blocking or running suspended through
// reclaimStep, log the same reclaims, faults, times and final state (shadows
// included) as procs reclaiming through referenceReclaim, with evictions
// that never park, that stall on an SSD and that charge ZRAM.
func TestReclaimMatchesReference(t *testing.T) {
	for _, dev := range []string{"none", "ssd", "zram"} {
		for seed := uint64(1); seed <= 4; seed++ {
			want := reclaimScenario(seed, dev, reclaimReference)
			if !strings.Contains(want, "err=<nil>") || !strings.Contains(want, "kswapd reclaim") {
				t.Fatalf("%s seed %d: the scenario failed or kswapd never ran:\n%s", dev, seed, want[max(0, len(want)-400):])
			}
			for _, stat := range []string{"Demoted", "Rotated", "Promoted", "Evicted"} {
				if strings.Contains(want, stat+":0 ") {
					t.Fatalf("%s seed %d: the scenario leaves %s at 0", dev, seed, stat)
				}
			}
			for _, mode := range []int{reclaimBlocking, reclaimStepped} {
				if got := reclaimScenario(seed, dev, mode); got != want {
					t.Errorf("%s seed %d mode %d: log differs from the reference pass's:\n%s", dev, seed, mode, firstDiff(got, want))
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
