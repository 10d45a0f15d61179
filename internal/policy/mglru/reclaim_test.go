package mglru

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

// evictionDevice gives k a swap device evictions write to: none, an SSD
// whose writeback window makes evictions stall, or ZRAM, whose writes
// charge CPU.
func evictionDevice(k *policytest.Kernel, e *sim.Engine, dev string, seed uint64) {
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
}

// reclaimScenario runs app procs that fault (the upper half of the
// address space file-backed), touch and reclaim directly, next to a
// kswapd proc that reclaims below a watermark and an aging daemon, with
// evictions writing to dev, every reclaim the given way. It returns a
// log of every reclaim and fault with the time, then the final state:
// stats, lock counters, eviction order and every shadow.
func reclaimScenario(cfg Config, seed uint64, dev string, mode int) string {
	const (
		regions = 6
		apps    = 3
	)
	pages := regions * pagetable.PTEsPerRegion
	frames := pages / 6
	g, k := attach(cfg, frames, regions, seed)
	e := sim.NewEngine(2)
	e.SetQuantum(20 * sim.Microsecond)
	evictionDevice(k, e, dev, seed)
	var log strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&log, "%d %d-%d ", e.Now(), g.MinSeq(), g.MaxSeq())
		fmt.Fprintf(&log, format, args...)
		log.WriteByte('\n')
	}
	reclaim := g.Reclaim
	if mode == reclaimReference {
		reclaim = g.referenceReclaim
	}
	for a := 0; a < apps; a++ {
		rng := sim.NewRNG(seed).Stream(uint64(a))
		e.Spawn(fmt.Sprintf("app-%d", a), false, func(v *sim.Env) {
			for i := 0; i < 400; i++ {
				// Half the accesses go to a file set as large as memory,
				// which refaults harder than the anon pages spread over
				// the lower half, so the file shield engages.
				vpn := pagetable.VPN(rng.Intn(pages / 2))
				if rng.Bool(0.5) {
					vpn = pagetable.VPN(pages/2 + rng.Intn(frames))
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
				k.FaultIn(v, g, vpn, false, int(vpn) >= pages/2)
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
						if g.reclaimStep(v, &w) {
							return true
						}
						logf("kswapd reclaim %d", w.evicted)
						walking = false
						continue
					}
					if k.M.FreePages() < frames/8 {
						g.startReclaim(&w, 8)
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
	e.Spawn("aging", true, func(v *sim.Env) {
		for {
			if g.NeedsAging() || k.AgingRequests > 0 {
				k.AgingRequests = 0
				logf("pass %v", g.Age(v))
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

// reclaimConfigs are the eviction variants a reclaimScenario runs:
// tier protection with the file gain and the spatial scan on (the
// default), each of them off, and two scan modes.
var reclaimConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Default()},
	{"no-spatial", func() Config { c := Default(); c.SpatialScan = false; return c }()},
	{"no-tiers", func() Config { c := Default(); c.TierProtection = false; return c }()},
	{"scan-all", ScanAll()},
	{"scan-none", ScanNone()},
}

// TestReclaimMatchesReference holds MG-LRU's eviction pass to the
// blocking reference pass: procs reclaiming through Reclaim, with kswapd
// blocking or running suspended through reclaimStep, log the same
// reclaims, faults, times and final state (shadows included) as procs
// reclaiming through referenceReclaim, for every variant, with evictions
// that never park, that stall on an SSD and that charge ZRAM.
func TestReclaimMatchesReference(t *testing.T) {
	for _, vc := range reclaimConfigs {
		for _, dev := range []string{"none", "ssd", "zram"} {
			for seed := uint64(1); seed <= 4; seed++ {
				want := reclaimScenario(vc.cfg, seed, dev, reclaimReference)
				if !strings.Contains(want, "err=<nil>") || !strings.Contains(want, "kswapd reclaim") {
					t.Fatalf("%s/%s seed %d: the scenario failed or kswapd never ran:\n%s", vc.name, dev, seed, want[max(0, len(want)-400):])
				}
				for _, mode := range []int{reclaimBlocking, reclaimStepped} {
					if got := reclaimScenario(vc.cfg, seed, dev, mode); got != want {
						t.Errorf("%s/%s seed %d mode %d: log differs from the reference pass's:\n%s", vc.name, dev, seed, mode, firstDiff(got, want))
					}
				}
			}
		}
	}
}

// FuzzReclaimMatchesReference runs reclaimScenario at a fuzzed seed,
// variant and eviction device, and requires Reclaim, with kswapd
// blocking and suspended, to log what referenceReclaim does. flags picks
// the variant: bit 0 turns the spatial scan off, bit 1 tier protection
// (and the file gain) off, bits 2–3 the scan mode and bits 4–5 the
// device (none, SSD, ZRAM).
func FuzzReclaimMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(0x17))
	f.Add(uint64(3), uint8(0x2a))
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		cfg := Default()
		cfg.SpatialScan = flags&1 == 0
		cfg.TierProtection = flags&2 == 0
		cfg.Mode = ScanMode(flags >> 2 & 3)
		dev := []string{"none", "ssd", "zram", "none"}[flags>>4&3]
		want := reclaimScenario(cfg, seed, dev, reclaimReference)
		for _, mode := range []int{reclaimBlocking, reclaimStepped} {
			if got := reclaimScenario(cfg, seed, dev, mode); got != want {
				t.Fatalf("mode %d: log differs from the reference pass's:\n%s", mode, firstDiff(got, want))
			}
		}
	})
}
