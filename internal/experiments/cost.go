package experiments

import "mglrusim/internal/core"

// The cell cost model: a relative virtual-cost estimate for one series,
// used by the shard executor's longest-processing-time-first bin packing.
// Absolute accuracy does not matter — only the ordering does — so the
// weights are coarse ratios of per-workload series cost and of the
// per-policy micro benchmarks in internal/bench (clock-scan's rmap
// pointer-chase makes Clock reclaim ~1.6x an MG-LRU aging walk per
// reclaimed page; the scan-free simple policies skip both).
var (
	costByWorkload = map[string]float64{
		"tpch":     3.0, // largest footprint, scan-heavy batch phases
		"pagerank": 2.2, // graph chase, high fault density
		"ycsb-a":   1.0,
		"ycsb-b":   1.0,
		"ycsb-c":   0.9, // read-only: no dirty writeback on eviction
	}
	costByPolicy = map[string]float64{
		PolClock:    1.3, // rmap chase per scanned page
		PolMGLRU:    1.0,
		PolGen14:    1.0,
		PolScanAll:  1.4, // walks every region each aging pass
		PolScanNone: 0.9,
		PolScanRand: 1.1,
		PolFIFO:     0.7, // no scan at all
		PolRandom:   0.7,
	}
)

// estimateCost scores one cell for bin packing. Monotone in trial count
// and scale; over-commit pressure (lower Ratio) raises fault volume and
// therefore cost; ZRAM's sub-microsecond latencies drain device queues
// faster than SSD in virtual time but cost more host CPU per page
// (compression modeling), roughly a wash, so the medium factor is mild.
func estimateCost(w WorkloadSpec, p PolicySpec, sys core.SystemConfig, opts Options) float64 {
	wc, ok := costByWorkload[w.Name]
	if !ok {
		wc = 1.5
	}
	pc, ok := costByPolicy[p.Name]
	if !ok {
		pc = 1.0
	}
	pressure := 1.0 + (1.0 - sys.Ratio) // ratio 0.5 → 1.5x, ratio 0.9 → 1.1x
	medium := 1.0
	if sys.Swap == core.SwapZRAM {
		medium = 0.9
	}
	faults := 1.0
	if sys.Fault.Enabled() {
		faults = 1.25 // storms and retries stretch the simulated run
	}
	return wc * pc * pressure * medium * faults * float64(opts.Trials) * opts.Scale
}
