package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/mglru"
)

// fullScaleSmokeOptions is FullScaleOptions with the footprint capped for
// test time: the geometry under test — the kernel's 512-PTE PMD fanout,
// which auto-selects the packed SoA layout — is exactly what full-scale
// runs use, only the page count shrinks.
func fullScaleSmokeOptions(parallelism int) Options {
	o := FullScaleOptions()
	o.Scale = 5
	o.Trials = 2
	o.Parallelism = parallelism
	o.Audit = true
	return o
}

// TestFullScaleSmokeDeterminism runs the capped full-scale profile twice —
// serial and 8-wide — with the invariant auditor on, and requires the two
// series to agree metric-for-metric: host parallelism must stay invisible
// at the full-scale region geometry, and the audited trials must raise
// zero violations.
func TestFullScaleSmokeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs audited trials at full-scale geometry")
	}
	run := func(parallelism int) []core.Metrics {
		r := NewRunner(fullScaleSmokeOptions(parallelism))
		w := r.workloadByName("tpch")
		if got := w.Make().RegionPTEs(); got != 512 {
			t.Fatalf("full-scale profile laid tpch out with %d-PTE regions, want 512", got)
		}
		s, err := r.Run(w, PolicyByName(PolMGLRU), SystemAt(0.5, core.SwapSSD))
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return s.Trials
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Fatalf("trial %d differs between parallelism 1 and 8:\nserial: %+v\nwide:   %+v",
				i, serial[i], wide[i])
		}
	}
}

// TestTrackRegionsAuditedFullScale runs the capped full-scale geometry
// under MG-LRU with the bitset-backed generation-region tracker enabled
// and the auditor cross-checking it against the intrusive lists at every
// sweep: a trial completing without error is the tracker passing audit.
func TestTrackRegionsAuditedFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: audited full-scale-geometry trial")
	}
	cfg := mglru.Default()
	cfg.TrackRegions = true
	sys := SystemAt(0.5, core.SwapSSD)
	sys.VMM.Audit = true
	sys.RegionPTEs = 512
	spec := WorkloadByNameAt("tpch", 5, 512)
	_, err := core.RunTrial(spec.Make(), func() policy.Policy { return mglru.New(cfg) }, sys, 0xABCD, 7)
	if err != nil {
		t.Fatalf("tracked + audited trial failed: %v", err)
	}
}

// TestRegionFanoutRegression is the coupling-knob regression test: the
// same workload laid out at the legacy 64-PTE fanout and the kernel's
// 512-PTE fanout must both complete audited trials (neither geometry may
// break an invariant), and a fanout disagreement between system config
// and workload layout must fail loudly instead of silently re-laying-out.
func TestRegionFanoutRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: audited trials at two fanouts")
	}
	for _, fanout := range []int{64, 512} {
		sys := SystemAt(0.5, core.SwapSSD)
		sys.VMM.Audit = true
		sys.RegionPTEs = fanout
		spec := WorkloadByNameAt("tpch", 0.5, fanout)
		if got := spec.Make().RegionPTEs(); got != fanout {
			t.Fatalf("workload laid out with %d-PTE regions, knob said %d", got, fanout)
		}
		if _, err := core.RunTrial(spec.Make(), PolicyByName(PolMGLRU).Make, sys, 0xABCD, 7); err != nil {
			t.Fatalf("fanout %d: audited trial failed: %v", fanout, err)
		}
	}

	sys := SystemAt(0.5, core.SwapSSD)
	sys.RegionPTEs = 512
	spec := WorkloadByNameAt("tpch", 0.5, 64)
	_, err := core.RunTrial(spec.Make(), PolicyByName(PolMGLRU).Make, sys, 0xABCD, 7)
	if err == nil {
		t.Fatal("fanout mismatch between system and workload must error, got nil")
	}
	if !strings.Contains(err.Error(), "fanout mismatch") {
		t.Fatalf("mismatch error does not name the problem: %v", err)
	}
}
