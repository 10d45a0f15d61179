package bench

import "testing"

// TestZeroAllocPaths pins the hot paths that make no allocation per op:
// each body runs at n and at 2n ops under testing.AllocsPerRun, and the
// n extra ops must add fewer than 0.01 allocations each. The set-up's
// allocations are in both runs and cancel out; amortized growth of a
// slice the body reuses stays under the bound. file-fault-path is not
// pinned: each of its refaults copies a shadow to the heap
// (vmm.(*Shadows).Take), 0.8 allocations per op, which -benchmem rounds
// down to 0.
func TestZeroAllocPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs the benchmark bodies")
	}
	paths := []struct {
		name string
		fn   func(n int, reset func())
		ops  int
	}{
		{"fault-path", benchFaultPath, 2000},
		{"clock-scan", benchClockScan, 2000},
		// Past the 4096 free frames, so the extra ops all reclaim.
		{"fullscale-fault-path", benchFullScaleFaultPath, 8000},
		{"writeback-cluster", benchWritebackCluster, 200},
		{"contended-reclaim", benchContendedReclaim, 1000},
		{"zram-write", benchZRAMWrite, 2000},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(1, func() { p.fn(n, func() {}) })
			}
			base, double := allocs(p.ops), allocs(2*p.ops)
			if perOp := (double - base) / float64(p.ops); perOp >= 0.01 {
				t.Errorf("%d ops make %.0f allocations, %d ops %.0f: %.3f allocs/op, want 0",
					p.ops, base, 2*p.ops, double, perOp)
			}
		})
	}
}
