package policytest

import (
	"reflect"
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// Conformance is a table-driven contract suite every policy.Policy
// implementation must pass, run against the policytest kernel double.
// mk must return a fresh, unattached policy per call. It asserts:
//
//   - Reclaim never evicts more than its target, and its return value
//     equals the number of EvictPage calls it made.
//   - Counter coherence: Stats().Evicted matches total evictions, and
//     Stats().Refaults matches the number of PageIn calls that carried a
//     shadow.
//   - Every Stats counter is monotone non-decreasing across operations.
//   - Residency coherence: after any quiescent point, pages present in
//     the table equal frames in use.
//   - Reclaim makes progress under pressure (a full memory with cold
//     pages can always be shrunk).
//   - A pass run through AgeStep, parking and continued inline, does
//     what the blocking Age does.
func Conformance(t *testing.T, name string, mk func() policy.Policy) {
	ConformanceAt(t, name, pagetable.PTEsPerRegion, mk)
}

// ConformanceAt is Conformance against a kernel double whose page table
// is laid out in regions of regionPTEs PTEs (a positive multiple of 64
// dividing confPages), so policies that walk region by region owe the
// same contract at the scaled workloads' fanout as at the kernel's.
func ConformanceAt(t *testing.T, name string, regionPTEs int, mk func() policy.Policy) {
	t.Run(name+"/reclaim-bounded", func(t *testing.T) { conformReclaimBounded(t, regionPTEs, mk) })
	t.Run(name+"/counter-coherence", func(t *testing.T) { conformCounters(t, regionPTEs, mk) })
	t.Run(name+"/stats-monotone", func(t *testing.T) { conformMonotone(t, regionPTEs, mk) })
	t.Run(name+"/residency", func(t *testing.T) { conformResidency(t, regionPTEs, mk) })
	t.Run(name+"/mixed-file-anon", func(t *testing.T) { conformMixedFileAnon(t, regionPTEs, mk) })
	t.Run(name+"/age-step", func(t *testing.T) { conformAgeStep(t, regionPTEs, mk) })
}

const (
	confFrames = 64
	// confPages is the anonymous span every suite kernel maps: two
	// 512-PTE PMD regions.
	confPages = 2 * pagetable.PTEsPerRegion
)

// confKernel builds the suite's kernel double over confPages mapped
// pages in regions of regionPTEs PTEs.
func confKernel(regionPTEs int) *Kernel {
	t := pagetable.NewWithRegionSize(confPages/regionPTEs, regionPTEs)
	t.MapRange(0, confPages, false)
	return NewWithTable(confFrames, t, 7)
}

// freeOne drives Reclaim until a frame is free, tolerating
// zero-progress passes (a pass that only rotates hot pages clears their
// accessed bits, so a later pass succeeds) up to a bound. Returns false
// if the policy made no progress within the bound.
func freeOne(v *sim.Env, k *Kernel, p policy.Policy) bool {
	maxStalls := 10*k.M.Size() + 100
	for stalls := 0; k.M.FreePages() == 0; {
		if p.Reclaim(v, 1) > 0 {
			continue
		}
		// The kernel double has no aging daemon; drive aging inline.
		p.Age(v)
		stalls++
		if stalls > maxStalls {
			return false
		}
	}
	return true
}

// workPattern faults pages in and touches a working set, forcing refaults
// once the footprint exceeds capacity. Returns total faults.
func workPattern(t *testing.T, v *sim.Env, k *Kernel, p policy.Policy, pages, rounds int) int {
	faults := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < pages; i++ {
			vpn := pagetable.VPN(i)
			if k.Touch(vpn, i%3 == 0) {
				continue
			}
			if !freeOne(v, k, p) {
				t.Fatal("no reclaim progress")
			}
			k.FaultIn(v, p, vpn, false, false)
			faults++
		}
	}
	return faults
}

// conformReclaimBounded: Reclaim(v, n) returns at most n and exactly the
// number of evictions it performed.
func conformReclaimBounded(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	k := confKernel(regionPTEs)
	p := mk()
	p.Attach(k)
	Run(func(v *sim.Env) {
		for i := 0; i < confFrames; i++ {
			k.FaultIn(v, p, pagetable.VPN(i), false, false)
		}
		for _, target := range []int{0, 1, 3, 8} {
			before := len(k.EvictOrder)
			got := p.Reclaim(v, target)
			did := len(k.EvictOrder) - before
			if got > target {
				t.Errorf("Reclaim(%d) returned %d > target", target, got)
			}
			if got != did {
				t.Errorf("Reclaim(%d) returned %d but made %d EvictPage calls", target, got, did)
			}
			if got < 0 {
				t.Errorf("Reclaim(%d) returned negative %d", target, got)
			}
		}
	})
}

// conformCounters: Evicted and Refaults reconcile with the kernel
// double's ground truth.
func conformCounters(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	k := confKernel(regionPTEs)
	p := mk()
	p.Attach(k)
	shadowedPageIns := 0
	Run(func(v *sim.Env) {
		pages := confFrames * 2
		for r := 0; r < 3; r++ {
			for i := 0; i < pages; i++ {
				vpn := pagetable.VPN(i)
				if k.Touch(vpn, false) {
					continue
				}
				if !freeOne(v, k, p) {
					t.Fatal("no reclaim progress")
				}
				if _, ok := k.Shadows[vpn]; ok {
					shadowedPageIns++
				}
				k.FaultIn(v, p, vpn, false, false)
			}
		}
	})
	st := p.Stats()
	if st.Evicted != uint64(len(k.EvictOrder)) {
		t.Errorf("Stats.Evicted = %d, kernel saw %d evictions", st.Evicted, len(k.EvictOrder))
	}
	if st.Refaults != uint64(shadowedPageIns) {
		t.Errorf("Stats.Refaults = %d, %d PageIns carried a shadow", st.Refaults, shadowedPageIns)
	}
}

// statsFields flattens a Stats for monotonicity comparison.
func statsFields(s policy.Stats) []uint64 {
	return []uint64{
		s.PTEScanned, s.RegionsScanned, s.RegionsSkipped, s.RMapWalks,
		s.Promoted, s.Demoted, s.Evicted, s.Rotated, s.AgingRuns,
		s.Refaults, s.TierProtected, s.FileProtected, uint64(s.ScanCPU),
	}
}

var statsFieldNames = []string{
	"PTEScanned", "RegionsScanned", "RegionsSkipped", "RMapWalks",
	"Promoted", "Demoted", "Evicted", "Rotated", "AgingRuns",
	"Refaults", "TierProtected", "FileProtected", "ScanCPU",
}

// conformMonotone: no Stats counter ever decreases.
func conformMonotone(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	k := confKernel(regionPTEs)
	p := mk()
	p.Attach(k)
	prev := statsFields(p.Stats())
	step := func(label string) {
		cur := statsFields(p.Stats())
		for i := range cur {
			if cur[i] < prev[i] {
				t.Errorf("after %s: Stats.%s decreased %d -> %d", label, statsFieldNames[i], prev[i], cur[i])
			}
		}
		prev = cur
	}
	Run(func(v *sim.Env) {
		for r := 0; r < 2; r++ {
			for i := 0; i < confFrames*2; i++ {
				vpn := pagetable.VPN(i)
				if k.Touch(vpn, false) {
					continue
				}
				if !freeOne(v, k, p) {
					t.Fatal("no reclaim progress")
				}
				k.FaultIn(v, p, vpn, false, false)
				step("fault")
			}
			p.Age(v)
			step("age")
			p.Reclaim(v, 4)
			step("reclaim")
		}
	})
}

// conformMixedFileAnon: a stream where half the address space is
// file-backed owes the same contract as a pure-anon one. The policy may
// steer eviction pressure between the types (MG-LRU's file shield does),
// but it must still make reclaim progress, reconcile its counters against
// the kernel's ground truth, eventually evict both types under uniform
// overcommit, and never corrupt the file flag on frames it shuffles
// between lists.
func conformMixedFileAnon(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	k := confKernel(regionPTEs)
	p := mk()
	p.Attach(k)
	pages := confFrames * 2
	fileHalf := func(i int) bool { return i >= pages/2 }
	shadowedPageIns := 0
	Run(func(v *sim.Env) {
		for r := 0; r < 3; r++ {
			for i := 0; i < pages; i++ {
				vpn := pagetable.VPN(i)
				if k.Touch(vpn, i%5 == 0) {
					continue
				}
				if !freeOne(v, k, p) {
					t.Fatal("no reclaim progress on mixed file+anon stream")
				}
				if _, ok := k.Shadows[vpn]; ok {
					shadowedPageIns++
				}
				k.FaultIn(v, p, vpn, false, fileHalf(i))
			}
		}
	})
	st := p.Stats()
	if st.Evicted != uint64(len(k.EvictOrder)) {
		t.Errorf("Stats.Evicted = %d, kernel saw %d evictions", st.Evicted, len(k.EvictOrder))
	}
	if st.Refaults != uint64(shadowedPageIns) {
		t.Errorf("Stats.Refaults = %d, %d PageIns carried a shadow", st.Refaults, shadowedPageIns)
	}
	var fileEv, anonEv int
	for _, vpn := range k.EvictOrder {
		if fileHalf(int(vpn)) {
			fileEv++
		} else {
			anonEv++
		}
	}
	if fileEv == 0 || anonEv == 0 {
		t.Errorf("uniform 2x overcommit evicted %d file / %d anon pages; both types must face pressure", fileEv, anonEv)
	}
	for f := 0; f < k.M.Size(); f++ {
		fr := k.M.Frame(mem.FrameID(f))
		if fr.VPN < 0 {
			continue
		}
		if got, want := fr.Flags&mem.FlagFile != 0, fileHalf(int(fr.VPN)); got != want {
			t.Errorf("frame %d (vpn %d): file flag = %v, want %v — policy corrupted frame flags", f, fr.VPN, got, want)
		}
	}
}

// conformResidency: frames in use always equal pages present.
func conformResidency(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	k := confKernel(regionPTEs)
	p := mk()
	p.Attach(k)
	Run(func(v *sim.Env) {
		faults := workPattern(t, v, k, p, confFrames*2, 2)
		if faults == 0 {
			t.Fatal("work pattern generated no faults")
		}
		if used, present := k.M.UsedPages(), k.T.PresentPages(); used != present {
			t.Errorf("frames in use %d != pages present %d", used, present)
		}
	})
}

// conformAgeStep: passes run through AgeStep as a suspended proc give the
// same results, counters and evictions as passes run through Age. A
// daemon charging next to the test proc makes the passes park.
func conformAgeStep(t *testing.T, regionPTEs int, mk func() policy.Policy) {
	type outcome struct {
		Worked  []bool
		Stats   policy.Stats
		Evicted []pagetable.VPN
		End     sim.Time
	}
	run := func(stepped bool) outcome {
		k := confKernel(regionPTEs)
		p := mk()
		p.Attach(k)
		var out outcome
		e := sim.NewEngine(1)
		e.Spawn("noise", true, func(v *sim.Env) {
			for {
				v.Charge(7 * sim.Microsecond)
				v.Sleep(3 * sim.Microsecond)
			}
		})
		e.Spawn("test", false, func(v *sim.Env) {
			for r := 0; r < 4; r++ {
				workPattern(t, v, k, p, confFrames*2, 1)
				if !stepped {
					out.Worked = append(out.Worked, p.Age(v))
					continue
				}
				var w policy.AgeWalk
				if p.AgeStep(v, &w) {
					v.Suspend(func() bool { return p.AgeStep(v, &w) })
				}
				out.Worked = append(out.Worked, w.Worked)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out.Stats, out.Evicted, out.End = p.Stats(), k.EvictOrder, e.Now()
		return out
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Errorf("passes through AgeStep differ from passes through Age:\n got %+v\nwant %+v", got, want)
	}
}
