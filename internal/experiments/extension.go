package experiments

import (
	"fmt"
	"sort"

	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
)

// Extensions maps extension-experiment IDs to their functions. These go
// beyond the paper's twelve figures (which stay exactly twelve — the
// public Figures map is part of the API contract), and pagebench resolves
// -figure arguments against both maps.
var Extensions = map[string]FigureFunc{
	"ext1": ExtDegradedSweep,
	"ext2": ExtFileServeSweep,
	"ext3": ExtDegradedFileSweep,
}

// ExtensionIDs returns all extension IDs in order.
func ExtensionIDs() []string {
	ids := make([]string, 0, len(Extensions))
	for id := range Extensions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// extSeverities is the degraded-device sweep's fault-plan ladder.
var extSeverities = []struct {
	Name string
	Plan fault.Plan
}{
	{"none", fault.Plan{}},
	{"mild", fault.Mild()},
	{"severe", fault.Severe()},
}

// DegradedRow is one (severity, policy) cell of the sweep.
type DegradedRow struct {
	Severity, Policy string
	// MeanRequestNS is the headline YCSB metric under this plan.
	MeanRequestNS float64
	// MeanFaults is the mean total fault count.
	MeanFaults float64
	// FaultTail is the major-fault latency at stats.TailPoints, ns.
	FaultTail []float64
	// Injected sums the fault plane's counters across trials.
	Injected fault.Stats
}

// DegradedResult is the degraded-device sweep: Clock-LRU vs MG-LRU
// fault-latency CDFs as the swap medium degrades underneath them.
type DegradedResult struct {
	Workload string
	Rows     []DegradedRow
}

// ID implements Result.
func (r *DegradedResult) ID() string { return "ext1" }

// Render implements Result.
func (r *DegradedResult) Render() string {
	t := newTable("severity", "policy", "mean-req(ms)", "mean-faults", "p50", "p90", "p99", "p99.9", "p99.99", "storms", "retries", "stall-t")
	for _, row := range r.Rows {
		cells := []string{
			row.Severity, row.Policy,
			f2(row.MeanRequestNS / 1e6), f2(row.MeanFaults),
		}
		for _, v := range row.FaultTail {
			cells = append(cells, nsToMs(v))
		}
		cells = append(cells,
			fmt.Sprintf("%d", row.Injected.Storms),
			fmt.Sprintf("%d", row.Injected.ReadRetries),
			fmt.Sprintf("%v", sim.Time(row.Injected.StormDelay)))
		t.row(cells...)
	}
	return fmt.Sprintf("Ext 1: %s major-fault latency under device degradation (SSD, 50%% ratio)\n", r.Workload) + t.String()
}

// CSV implements CSVer.
func (r *DegradedResult) CSV() string {
	var c csvBuilder
	header := []any{"severity", "policy", "mean_req_ns", "mean_faults"}
	for _, p := range stats.TailPoints {
		header = append(header, fmt.Sprintf("fault_p%g_ns", p))
	}
	header = append(header, "storms", "stall_storms", "storm_delay_ns", "read_retries", "hard_errors")
	c.row(header...)
	for _, row := range r.Rows {
		cells := []any{row.Severity, row.Policy, row.MeanRequestNS, row.MeanFaults}
		for _, v := range row.FaultTail {
			cells = append(cells, v)
		}
		cells = append(cells, row.Injected.Storms, row.Injected.StallStorms,
			row.Injected.StormDelay, row.Injected.ReadRetries, row.Injected.HardReadErrors)
		c.row(cells...)
	}
	return c.String()
}

// extCacheRatios is the ext2 cache-size ladder: memory capacity as a
// fraction of the serve workload's footprint. The low rung starves the
// file tier hard enough that phase shifts refault; the high rung fits
// most of the hot set.
var extCacheRatios = []float64{0.35, 0.5, 0.7}

// extFilePolicies is the ext2 policy arm: the paper's Clock-vs-MGLRU
// baseline plus the PID-ablated MG-LRU, isolating how much of the
// file-tier protection comes from the tier-gain controller.
func extFilePolicies() []PolicySpec {
	return Policies(PolClock, PolMGLRU, PolMGLRUNoPID)
}

// FileServeRow is one (cache ratio, policy) cell of the page-cache sweep.
type FileServeRow struct {
	Ratio  float64
	Policy string
	// HitRatio is resident file-page touches over all file-page touches
	// (hits + file major faults), pooled across trials.
	HitRatio float64
	// RefaultRate is shadow-entry refaults per file-page touch (hits +
	// file major faults) — how often serving traffic lands on a page the
	// policy evicted prematurely. Normalizing by touches rather than by
	// evictions keeps the rate comparable across policies: type steering
	// shrinks the eviction count itself, which would deflate the
	// denominator and mask the benefit.
	RefaultRate float64
	// WritebackPages is the mean writeback volume per trial (flusher
	// extents plus synchronous eviction pageouts).
	WritebackPages float64
	// FlusherShare is the fraction of that volume the flusher wrote
	// asynchronously (the rest were reclaim-path pageouts).
	FlusherShare float64
	// MeanRequestNS is the headline serving latency.
	MeanRequestNS float64
	// FaultTail is the major-fault latency at stats.TailPoints, ns.
	FaultTail []float64
}

// FileServeResult is the ext2 figure family: file-vs-anon reclaim under
// production serving traffic, across a cache-size ladder.
type FileServeResult struct {
	Workload string
	Rows     []FileServeRow
}

// ID implements Result.
func (r *FileServeResult) ID() string { return "ext2" }

// Render implements Result.
func (r *FileServeResult) Render() string {
	t := newTable("ratio", "policy", "hit%", "refault-rate", "wb-pages", "flusher%", "mean-req(ms)", "p50", "p90", "p99", "p99.9", "p99.99")
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%.2f", row.Ratio), row.Policy,
			f2(row.HitRatio * 100), fmt.Sprintf("%.4f", row.RefaultRate),
			f2(row.WritebackPages), f2(row.FlusherShare * 100),
			f2(row.MeanRequestNS / 1e6),
		}
		for _, v := range row.FaultTail {
			cells = append(cells, nsToMs(v))
		}
		t.row(cells...)
	}
	return fmt.Sprintf("Ext 2: %s file-vs-anon reclaim across cache sizes (SSD, page cache on)\n", r.Workload) + t.String()
}

// CSV implements CSVer.
func (r *FileServeResult) CSV() string {
	var c csvBuilder
	header := []any{"ratio", "policy", "hit_ratio", "refault_rate", "writeback_pages", "flusher_share", "mean_req_ns"}
	for _, p := range stats.TailPoints {
		header = append(header, fmt.Sprintf("fault_p%g_ns", p))
	}
	c.row(header...)
	for _, row := range r.Rows {
		cells := []any{row.Ratio, row.Policy, row.HitRatio, row.RefaultRate,
			row.WritebackPages, row.FlusherShare, row.MeanRequestNS}
		for _, v := range row.FaultTail {
			cells = append(cells, v)
		}
		c.row(cells...)
	}
	return c.String()
}

// fileServeCell aggregates a series' page-cache counters into one row.
// Ratios pool raw counts across trials (a per-trial mean of ratios would
// overweight quiet trials); volumes are per-trial means.
func fileServeCell(ratio float64, policy string, s *Series) FileServeRow {
	var hits, faults, refaults, flushed, total uint64
	for _, m := range s.Trials {
		hits += m.Counters.FileAccesses
		faults += m.Counters.FileFaults
		refaults += m.FileCache.Refaults
		flushed += m.FileCache.WritebackPages
		total += m.FileCache.WrittenBack()
	}
	row := FileServeRow{
		Ratio:         ratio,
		Policy:        policy,
		MeanRequestNS: stats.Mean(s.MeanRequestNS()),
		FaultTail:     s.MergedFaultTail(),
	}
	if touches := hits + faults; touches > 0 {
		row.HitRatio = float64(hits) / float64(touches)
		row.RefaultRate = float64(refaults) / float64(touches)
	}
	if n := len(s.Trials); n > 0 {
		row.WritebackPages = float64(total) / float64(n)
	}
	if total > 0 {
		row.FlusherShare = float64(flushed) / float64(total)
	}
	return row
}

// ExtFileServeSweep runs the page-cache serving sweep: the serve workload
// (file-backed object store + anon index and scratch) on SSD swap with
// the page cache enabled, across the cache-size ladder, comparing Clock,
// MG-LRU, and PID-ablated MG-LRU on hit ratio, refault rate, writeback
// volume, and tail fault latency. The serve workload's phase shifts
// create the refault imbalance the tier-gain controller exists for, so
// the mglru vs mglru-nopid delta is the controller's measured effect.
func ExtFileServeSweep(r *Runner) (Result, error) {
	return extFileServeSweep(r, fault.Plan{})
}

// extFileServeSweep is ExtFileServeSweep with an explicit fault plan —
// the zero-plan transparency test injects an inert file-targeted plan
// here and asserts the figure stays byte-identical.
func extFileServeSweep(r *Runner, plan fault.Plan) (Result, error) {
	w := r.workloadByName("serve")
	res := &FileServeResult{Workload: w.Name}
	for _, ratio := range extCacheRatios {
		sys := SystemAt(ratio, core.SwapSSD)
		sys.PageCache = pagecache.DefaultConfig()
		sys.Fault = plan
		for _, p := range extFilePolicies() {
			s, err := r.Run(w, p, sys)
			if err != nil {
				return nil, fmt.Errorf("ext2 %.2f/%s: %w", ratio, p.Name, err)
			}
			res.Rows = append(res.Rows, fileServeCell(ratio, p.Name, s))
		}
	}
	return res, nil
}

// extFileSeverities is the ext3 fault-plan ladder for the file backing
// device. Unlike ext1's swap ladder these plans target the file device,
// so the anon/swap path stays pristine and every observed degradation is
// attributable to the page cache's error handling.
var extFileSeverities = []struct {
	Name string
	Plan fault.Plan
}{
	{"none", fault.Plan{}},
	{"mild", fault.MildFile()},
	{"severe", fault.SevereFile()},
}

// DegradedFileRow is one (severity, policy) cell of the ext3 sweep.
type DegradedFileRow struct {
	Severity, Policy string
	// MeanRequestNS is the headline serving latency under this plan.
	MeanRequestNS float64
	// HitRatio and RefaultRate are the ext2 cache-health metrics, here
	// tracking refault inflation as the device degrades.
	HitRatio, RefaultRate float64
	// IOErrors / PoisonedFaults are the SIGBUS ledger: demand reads that
	// exhausted retries (poisoning their page) and later fast-failed
	// faults on those pages.
	IOErrors, PoisonedFaults uint64
	// WriteErrors / DataAtRisk are the errseq ledger: writeback writes
	// past their retry budget and pages whose latest data never
	// persisted.
	WriteErrors, DataAtRisk uint64
	// ThrottleStalls / ThrottleStallMS account the hard dirty throttle.
	ThrottleStalls  uint64
	ThrottleStallMS float64
	// FaultTail is the major-fault latency at stats.TailPoints, ns.
	FaultTail []float64
	// Injected sums the file-device fault plane's counters across trials.
	Injected fault.Stats
}

// DegradedFileResult is the ext3 figure: the serve workload over a
// degrading file backing device — the page cache degrading
// kernel-fashion (SIGBUS, errseq, dirty throttle) instead of dying.
type DegradedFileResult struct {
	Workload string
	Rows     []DegradedFileRow
}

// ID implements Result.
func (r *DegradedFileResult) ID() string { return "ext3" }

// Render implements Result.
func (r *DegradedFileResult) Render() string {
	t := newTable("severity", "policy", "mean-req(ms)", "hit%", "refault-rate",
		"io-err", "sigbus", "wr-err", "at-risk", "throttles", "throttle-ms",
		"p50", "p99", "p99.99")
	for _, row := range r.Rows {
		cells := []string{
			row.Severity, row.Policy,
			f2(row.MeanRequestNS / 1e6),
			f2(row.HitRatio * 100), fmt.Sprintf("%.4f", row.RefaultRate),
			fmt.Sprintf("%d", row.IOErrors),
			fmt.Sprintf("%d", row.PoisonedFaults),
			fmt.Sprintf("%d", row.WriteErrors),
			fmt.Sprintf("%d", row.DataAtRisk),
			fmt.Sprintf("%d", row.ThrottleStalls),
			f2(row.ThrottleStallMS),
			nsToMs(row.FaultTail[0]), nsToMs(row.FaultTail[2]), nsToMs(row.FaultTail[4]),
		}
		t.row(cells...)
	}
	return fmt.Sprintf("Ext 3: %s serving over a degraded file device (SSD, page cache + dirty throttle)\n", r.Workload) + t.String()
}

// CSV implements CSVer.
func (r *DegradedFileResult) CSV() string {
	var c csvBuilder
	header := []any{"severity", "policy", "mean_req_ns", "hit_ratio", "refault_rate",
		"io_errors", "poisoned_faults", "write_errors", "data_at_risk",
		"throttle_stalls", "throttle_stall_ns"}
	for _, p := range stats.TailPoints {
		header = append(header, fmt.Sprintf("fault_p%g_ns", p))
	}
	header = append(header, "storms", "stall_storms", "storm_delay_ns",
		"read_retries", "write_retries", "prefetch_errors")
	c.row(header...)
	for _, row := range r.Rows {
		cells := []any{row.Severity, row.Policy, row.MeanRequestNS,
			row.HitRatio, row.RefaultRate,
			row.IOErrors, row.PoisonedFaults, row.WriteErrors, row.DataAtRisk,
			row.ThrottleStalls, row.ThrottleStallMS * 1e6}
		for _, v := range row.FaultTail {
			cells = append(cells, v)
		}
		cells = append(cells, row.Injected.Storms, row.Injected.StallStorms,
			row.Injected.StormDelay, row.Injected.ReadRetries,
			row.Injected.WriteRetries, row.Injected.PrefetchErrors)
		c.row(cells...)
	}
	return c.String()
}

// ExtDegradedFileSweep runs the degraded-file-device sweep: the serve
// workload at the middle cache ratio with the degraded page-cache
// profile (hard dirty throttle armed), under each file-device fault
// severity, comparing Clock, MG-LRU, and PID-ablated MG-LRU. The
// severity only swaps the fault plan — the system profile is otherwise
// identical across rows, and the seed key excludes the plan, so every
// row reruns the same seeded trials over a progressively sicker device.
// The "none" rows double as the zero-plan transparency baseline: no
// wrapper is installed and they execute the pristine event sequence.
func ExtDegradedFileSweep(r *Runner) (Result, error) {
	w := r.workloadByName("serve")
	res := &DegradedFileResult{Workload: w.Name}
	for _, sev := range extFileSeverities {
		sys := SystemAt(0.5, core.SwapSSD)
		sys.PageCache = pagecache.DegradedConfig()
		sys.Fault = sev.Plan
		for _, p := range extFilePolicies() {
			s, err := r.Run(w, p, sys)
			if err != nil {
				return nil, fmt.Errorf("ext3 %s/%s: %w", sev.Name, p.Name, err)
			}
			res.Rows = append(res.Rows, degradedFileCell(sev.Name, p.Name, s))
		}
	}
	return res, nil
}

// degradedFileCell aggregates a series into one ext3 row. Ratios pool
// raw counts across trials (as in ext2); error and throttle counters are
// trial totals — the figure's point is their growth down the ladder.
func degradedFileCell(severity, policy string, s *Series) DegradedFileRow {
	var hits, faults uint64
	for _, m := range s.Trials {
		hits += m.Counters.FileAccesses
		faults += m.Counters.FileFaults
	}
	fc := s.FileCacheTotals()
	row := DegradedFileRow{
		Severity:        severity,
		Policy:          policy,
		MeanRequestNS:   stats.Mean(s.MeanRequestNS()),
		IOErrors:        fc.FileIOErrors,
		PoisonedFaults:  fc.PoisonedFaults,
		WriteErrors:     fc.WriteErrors,
		DataAtRisk:      fc.DataAtRisk,
		ThrottleStalls:  fc.ThrottleStalls,
		ThrottleStallMS: float64(fc.ThrottleStallTime) / 1e6,
		FaultTail:       s.MergedFaultTail(),
		Injected:        s.FileInjectionTotals(),
	}
	if touches := hits + faults; touches > 0 {
		row.HitRatio = float64(hits) / float64(touches)
		row.RefaultRate = float64(fc.Refaults) / float64(touches)
	}
	return row
}

// ExtDegradedSweep runs the degraded-device sweep: ycsb-a (the paper's
// mixed read/write latency workload) on SSD swap at 50% capacity, under
// each fault-plan severity, comparing how Clock-LRU's and MG-LRU's
// fault-latency distributions absorb storms, stalls, and retries. Each
// severity folds its plan into the system config, so the "none" rows
// reuse the exact series the paper figures run (cache and checkpoint
// included) while faulted rows get their own seeded plans — the same
// trial seeds, since the seed key deliberately excludes the plan.
func ExtDegradedSweep(r *Runner) (Result, error) {
	w := r.workloadByName("ycsb-a")
	res := &DegradedResult{Workload: w.Name}
	for _, sev := range extSeverities {
		sys := SystemAt(0.5, core.SwapSSD)
		sys.Fault = sev.Plan
		for _, p := range BaselinePair() {
			s, err := r.Run(w, p, sys)
			if err != nil {
				return nil, fmt.Errorf("ext1 %s/%s: %w", sev.Name, p.Name, err)
			}
			res.Rows = append(res.Rows, DegradedRow{
				Severity:      sev.Name,
				Policy:        p.Name,
				MeanRequestNS: stats.Mean(s.MeanRequestNS()),
				MeanFaults:    stats.Mean(s.Faults()),
				FaultTail:     s.MergedFaultTail(),
				Injected:      s.InjectionTotals(),
			})
		}
	}
	return res, nil
}
