// Benchmarks regenerating every figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// figure benchmark runs the corresponding experiment at a reduced trial
// count and workload scale (benchmarks measure harness cost and verify
// the pipeline end-to-end; use cmd/pagebench for paper-methodology runs
// with 25 trials at full scale) and reports a headline shape metric from
// the result.
package mglrusim_test

import (
	"fmt"
	"sync"
	"testing"

	"mglrusim"
	"mglrusim/internal/experiments"
)

// benchOpts are the reduced-methodology options shared by the figure
// benchmarks. One shared runner caches series across benchmarks, as the
// harness does across figures.
var (
	runnerOnce sync.Once
	benchRun   *mglrusim.Runner
)

func benchRunner() *mglrusim.Runner {
	runnerOnce.Do(func() {
		benchRun = mglrusim.NewRunner(experiments.Options{
			Trials: 3,
			Scale:  0.5,
			Seed:   0xBE7C4,
		})
	})
	return benchRun
}

// runFigure executes figure id b.N times and returns the last result.
func runFigure(b *testing.B, id string) mglrusim.FigureResult {
	b.Helper()
	r := benchRunner()
	var res mglrusim.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mglrusim.Figures[id](r)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Render() == "" {
		b.Fatal("empty rendering")
	}
	return res
}

// BenchmarkFig1MeanPerformanceSSD50 regenerates Figure 1: mean runtime
// and faults, MG-LRU vs Clock, normalized to Clock (SSD, 50% ratio).
func BenchmarkFig1MeanPerformanceSSD50(b *testing.B) {
	res := runFigure(b, "fig1")
	f1 := res.(*experiments.Fig1Result)
	var ratio float64
	for _, row := range f1.Rows {
		ratio += row.MGLRUPerfNorm
	}
	b.ReportMetric(ratio/float64(len(f1.Rows)), "mglru/clock-perf")
}

// BenchmarkFig2JointDistributions regenerates Figure 2: joint
// (runtime, faults) distributions for TPC-H and PageRank.
func BenchmarkFig2JointDistributions(b *testing.B) {
	res := runFigure(b, "fig2")
	f2 := res.(*experiments.Fig2Result)
	for _, s := range f2.Series {
		if s.Workload == "tpch" && s.Policy == "clock" {
			b.ReportMetric(s.Fit.R2, "tpch-clock-r2")
		}
	}
}

// BenchmarkFig3TailLatencySSD regenerates Figure 3: YCSB read/write tail
// latencies under SSD swap.
func BenchmarkFig3TailLatencySSD(b *testing.B) {
	res := runFigure(b, "fig3")
	t := res.(*experiments.TailResult)
	b.ReportMetric(float64(len(t.Rows)), "tail-rows")
}

// BenchmarkFig4VariantMeans regenerates Figure 4: MG-LRU variant means
// normalized to the default configuration.
func BenchmarkFig4VariantMeans(b *testing.B) {
	res := runFigure(b, "fig4")
	m := res.(*experiments.NormMatrix)
	b.ReportMetric(m.Perf["tpch"]["scan-all"], "tpch-scanall-perf")
	b.ReportMetric(m.Perf["tpch"]["scan-none"], "tpch-scannone-perf")
}

// BenchmarkFig5VariantJoint regenerates Figure 5: joint distributions for
// the MG-LRU variants.
func BenchmarkFig5VariantJoint(b *testing.B) {
	res := runFigure(b, "fig5")
	f5 := res.(*experiments.Fig5Result)
	b.ReportMetric(float64(len(f5.Series)), "series")
}

// BenchmarkFig6CapacitySweep regenerates Figure 6: mean performance at
// 75% and 90% capacity-to-footprint ratios.
func BenchmarkFig6CapacitySweep(b *testing.B) {
	res := runFigure(b, "fig6")
	b.ReportMetric(float64(len(res.(*experiments.MultiResult).Parts)), "ratios")
}

// BenchmarkFig7FaultDistributions regenerates Figure 7: fault
// distributions (five-number summaries) at higher capacities.
func BenchmarkFig7FaultDistributions(b *testing.B) {
	res := runFigure(b, "fig7")
	f7 := res.(*experiments.Fig7Result)
	worst := 0.0
	for _, row := range f7.Rows {
		if row.Summary.Max > worst {
			worst = row.Summary.Max
		}
	}
	b.ReportMetric(worst, "max-normalized-faults")
}

// BenchmarkFig8TailByCapacity regenerates Figure 8: tail latencies at 75%
// and 90% capacity.
func BenchmarkFig8TailByCapacity(b *testing.B) {
	runFigure(b, "fig8")
}

// BenchmarkFig9ZramMeans regenerates Figure 9: mean performance with ZRAM
// swap.
func BenchmarkFig9ZramMeans(b *testing.B) {
	res := runFigure(b, "fig9")
	m := res.(*experiments.NormMatrix)
	b.ReportMetric(m.Perf["pagerank"]["clock"], "pagerank-clock-perf")
}

// BenchmarkFig10ZramFaults regenerates Figure 10: mean faults with ZRAM
// swap.
func BenchmarkFig10ZramFaults(b *testing.B) {
	runFigure(b, "fig10")
}

// BenchmarkFig11ZramVsSSD regenerates Figure 11: runtime and fault deltas
// between ZRAM and SSD swap.
func BenchmarkFig11ZramVsSSD(b *testing.B) {
	res := runFigure(b, "fig11")
	f11 := res.(*experiments.Fig11Result)
	for _, row := range f11.Rows {
		if row.Workload == "pagerank" && row.Policy == "mglru" {
			b.ReportMetric(row.RuntimeRatio, "pagerank-rt-ratio")
			b.ReportMetric(row.FaultRatio, "pagerank-fault-ratio")
		}
	}
}

// BenchmarkFig12ZramTails regenerates Figure 12: tail latencies with ZRAM
// swap.
func BenchmarkFig12ZramTails(b *testing.B) {
	runFigure(b, "fig12")
}

// --- ablation benches: design-choice probes beyond the paper ---

// ablationTrial runs TPC-H once under a given MG-LRU configuration and
// returns runtime seconds and faults.
func ablationTrial(b *testing.B, cfg mglrusim.MGLRUConfig, seed uint64) (float64, float64) {
	b.Helper()
	tc := mglrusim.TPCHDefaults()
	tc.LineitemPages /= 2
	tc.OrdersPages /= 2
	tc.HashPages /= 2
	tc.Queries = 3
	w := mglrusim.NewTPCH(tc)
	m, err := mglrusim.RunTrial(w,
		func() mglrusim.Policy { return mglrusim.NewMGLRUWith(cfg) },
		mglrusim.DefaultSystemConfig(), 42, seed)
	if err != nil {
		b.Fatal(err)
	}
	return m.RuntimeSeconds(), m.Faults()
}

// BenchmarkAblationSpatialScan measures the eviction-side spatial scan's
// contribution (§III-C): surrounding-PTE scans on vs off.
func BenchmarkAblationSpatialScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := mglrusim.MGLRUDefault()
		off := mglrusim.MGLRUDefault()
		off.SpatialScan = false
		rtOn, _ := ablationTrial(b, on, uint64(i)+1)
		rtOff, _ := ablationTrial(b, off, uint64(i)+1)
		b.ReportMetric(rtOff/rtOn, "off/on-runtime")
	}
}

// BenchmarkAblationBloomDensity sweeps the bloom-filter density rule that
// decides which regions the aging walk revisits.
func BenchmarkAblationBloomDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loose := mglrusim.MGLRUDefault()
		loose.BloomDensityNum, loose.BloomDensityDen = 1, 64
		tight := mglrusim.MGLRUDefault()
		tight.BloomDensityNum, tight.BloomDensityDen = 1, 4
		rtLoose, _ := ablationTrial(b, loose, uint64(i)+1)
		rtTight, _ := ablationTrial(b, tight, uint64(i)+1)
		b.ReportMetric(rtTight/rtLoose, "tight/loose-runtime")
	}
}

// BenchmarkAblationScanRandProbability sweeps Scan-Rand's per-region scan
// probability (the paper fixes it at 0.5 and asks whether principled
// randomness could do better).
func BenchmarkAblationScanRandProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0.25, 0.5, 0.75} {
			rt, _ := ablationTrial(b, mglrusim.MGLRUScanRand(p), uint64(i)+1)
			b.ReportMetric(rt, "rt-p"+fmtProb(p))
		}
	}
}

func fmtProb(p float64) string {
	switch p {
	case 0.25:
		return "25"
	case 0.5:
		return "50"
	default:
		return "75"
	}
}

// BenchmarkAblationGenerationCount sweeps MaxGens between the kernel
// default (4) and Gen-14 (2^14) through an intermediate point.
func BenchmarkAblationGenerationCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, gens := range []int{4, 64, 1 << 14} {
			cfg := mglrusim.MGLRUDefault()
			cfg.MaxGens = gens
			_, faults := ablationTrial(b, cfg, uint64(i)+1)
			switch gens {
			case 4:
				b.ReportMetric(faults, "faults-gen4")
			case 64:
				b.ReportMetric(faults, "faults-gen64")
			default:
				b.ReportMetric(faults, "faults-gen14")
			}
		}
	}
}

// auditGuardTrial is the fixed small trial both audit-guard benchmarks
// run; only the Audit flag differs.
func auditGuardTrial(b *testing.B, audit bool) {
	b.Helper()
	tc := mglrusim.TPCHDefaults()
	tc.LineitemPages /= 2
	tc.OrdersPages /= 2
	tc.HashPages /= 2
	tc.Queries = 2
	w := mglrusim.NewTPCH(tc)
	sys := mglrusim.DefaultSystemConfig()
	sys.VMM.Audit = audit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mglrusim.RunTrial(w, mglrusim.NewMGLRU, sys, 42, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditGuardDisabled is the zero-cost-when-off guard for the
// invariant auditor: with Audit false every checkpoint is a single nil
// check, so this must stay indistinguishable from the pre-auditor
// baseline. Compare against BenchmarkAuditGuardEnabled to see the price
// of turning auditing on.
func BenchmarkAuditGuardDisabled(b *testing.B) { auditGuardTrial(b, false) }

// BenchmarkAuditGuardEnabled runs the identical trial with the invariant
// auditor on (per-event checks plus periodic full-state scans).
func BenchmarkAuditGuardEnabled(b *testing.B) { auditGuardTrial(b, true) }

// BenchmarkTrialThroughput measures raw simulator speed: one TPC-H trial
// per iteration.
func BenchmarkTrialThroughput(b *testing.B) {
	tc := mglrusim.TPCHDefaults()
	tc.Queries = 2
	w := mglrusim.NewTPCH(tc)
	sys := mglrusim.DefaultSystemConfig()
	b.ResetTimer()
	var faults float64
	for i := 0; i < b.N; i++ {
		m, err := mglrusim.RunTrial(w, mglrusim.NewMGLRU, sys, 42, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		faults = m.Faults()
	}
	b.ReportMetric(faults, "faults/trial")
}

// BenchmarkAblationSwapLatencySweep probes the paper's §V-D/§VI-B claim
// that the ordering of Clock vs MG-LRU depends on how fast the swap
// medium is relative to scanning: it sweeps the SSD latency across two
// orders of magnitude and reports the Clock/MG-LRU runtime ratio at each
// point.
func BenchmarkAblationSwapLatencySweep(b *testing.B) {
	tc := mglrusim.TPCHDefaults()
	tc.LineitemPages /= 2
	tc.OrdersPages /= 2
	tc.HashPages /= 2
	tc.Queries = 3
	w := mglrusim.NewTPCH(tc)
	for i := 0; i < b.N; i++ {
		for _, lat := range []mglrusim.Duration{
			100 * mglrusim.Microsecond,
			1 * mglrusim.Millisecond,
			7500 * mglrusim.Microsecond,
		} {
			sys := mglrusim.DefaultSystemConfig()
			sys.SSD.ReadLatency = lat
			sys.SSD.WriteLatency = lat
			run := func(mk mglrusim.PolicyFactory) float64 {
				m, err := mglrusim.RunTrial(w, mk, sys, 42, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				return m.RuntimeSeconds()
			}
			ratio := run(mglrusim.NewClock) / run(mglrusim.NewMGLRU)
			b.ReportMetric(ratio, fmt.Sprintf("clock/mglru-%dus", lat/mglrusim.Microsecond))
		}
	}
}
