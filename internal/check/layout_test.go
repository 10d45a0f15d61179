package check_test

import (
	"testing"

	"mglrusim/internal/check"
	"mglrusim/internal/experiments"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/workload"
)

// TestDifferentialBothLayouts replays the full differential harness —
// every scan-based policy plus the exact-LRU and Belady-OPT oracles,
// with invariant auditing on — over one recorded trace per workload
// family, once with the workload laid out in the scaled runs' 64-PTE
// regions and once in the kernel's 512-PTE PMD regions (the full-scale
// fanout). The oracle bounds (OPT floor, exact-LRU == Mattson) must hold
// under both layouts. The fanout only moves segments to other VPNs, so
// the policies that never read region geometry, and the oracles, must
// fault identically under both.
func TestDifferentialBothLayouts(t *testing.T) {
	const (
		maxOps = 8000
		scale  = 0.05
	)
	fanouts := []int{workload.DefaultRegionPTEs, pagetable.PTEsPerRegion}
	policies := map[string]func() policy.Policy{}
	for _, name := range []string{"clock", "mglru", "gen14", "scan-all", "fifo"} {
		policies[name] = experiments.PolicyByName(name).Make
	}

	for _, name := range []string{"tpch", "ycsb-a"} {
		name := name
		t.Run(name, func(t *testing.T) {
			reports := make(map[int]*check.DiffReport, len(fanouts))
			for _, fanout := range fanouts {
				w := experiments.WorkloadByNameAt(name, scale, fanout).Make()
				if w.RegionPTEs() != fanout {
					t.Fatalf("workload laid out at fanout %d, want %d", w.RegionPTEs(), fanout)
				}
				tr := check.RecordTrace(w, 0xABCD, 42, maxOps)
				if len(tr) < 1000 {
					t.Fatalf("fanout %d: trace too short: %d accesses", fanout, len(tr))
				}
				unique := map[int64]bool{}
				for _, vpn := range tr {
					unique[int64(vpn)] = true
				}
				capacity := len(unique) / 2
				if capacity < 32 {
					capacity = 32
				}
				rep, err := check.RunDifferential(tr, check.TableFor(w), capacity, policies, true)
				if err != nil {
					t.Fatalf("fanout %d differential failed:\n%v\nreport: %s", fanout, err, rep)
				}
				if rep.Faults["exact-lru"] != rep.MattsonLRUMisses {
					t.Fatalf("fanout %d: exact-lru %d != mattson %d", fanout, rep.Faults["exact-lru"], rep.MattsonLRUMisses)
				}
				t.Logf("fanout %d: %s", fanout, rep)
				reports[fanout] = rep
			}

			small, large := reports[fanouts[0]], reports[fanouts[1]]
			if small.Accesses != large.Accesses || small.OPTFaults != large.OPTFaults {
				t.Fatalf("trace differs between layouts: %d/%d accesses, OPT %d/%d",
					small.Accesses, large.Accesses, small.OPTFaults, large.OPTFaults)
			}
			for _, name := range []string{"clock", "fifo", "exact-lru"} {
				if small.Faults[name] != large.Faults[name] {
					t.Errorf("%s faults diverge between layouts: %d vs %d", name, small.Faults[name], large.Faults[name])
				}
			}
		})
	}
}
