// Package tpch models TPC-H running under Spark-SQL, the paper's data-
// warehousing workload. The model preserves the structural properties the
// paper's analysis leans on (§V-B): execution is a sequence of highly
// parallel stages separated by barriers, work per thread within a stage is
// balanced, and access patterns are regular — large sequential scans over
// partitioned tables plus hash-join probes into a bounded build region.
// Those properties are what make TPC-H runtime almost perfectly linear in
// its fault count (r² > 0.98 in the paper).
package tpch

import (
	"sync"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

// Config sizes the workload (pages are the scaled unit; defaults give a
// ~15 "GB-equivalent" footprint at 1/1000 scale).
type Config struct {
	// Table sizes in pages.
	LineitemPages, OrdersPages, CustomerPages int
	// HashPages is the join build/scratch region.
	HashPages int
	// InputPages is file-backed input read once at startup.
	InputPages int
	// Queries is the number of queries in one execution.
	Queries int
	// Threads is the executor parallelism (the paper uses 12).
	Threads int
	// ProbesPerPage is hash probes issued per scanned lineitem page.
	ProbesPerPage int
	// ProbeTheta is the zipfian skew of probe targets within the hash
	// region (0 = uniform). Join keys are skewed in practice, which
	// creates the medium-hot page population whose retention separates
	// replacement policies.
	ProbeTheta float64
	// ScanCPU, ProbeCPU, WriteCPU are per-operation compute costs.
	ScanCPU, ProbeCPU, WriteCPU sim.Duration
	// RegionPTEs is the page-table region fanout.
	RegionPTEs int
}

// DefaultConfig returns the calibrated scaled-down configuration.
func DefaultConfig() Config {
	return Config{
		LineitemPages: 1900,
		OrdersPages:   480,
		CustomerPages: 140,
		HashPages:     1280,
		InputPages:    128,
		Queries:       6,
		Threads:       12,
		ProbesPerPage: 4,
		ProbeTheta:    0.85,
		ScanCPU:       4 * sim.Millisecond,
		ProbeCPU:      150 * sim.Microsecond,
		WriteCPU:      200 * sim.Microsecond,
		RegionPTEs:    workload.DefaultRegionPTEs,
	}
}

// TPCH is the workload.
type TPCH struct {
	*workload.AddrSpace

	cfg Config

	input, lineitem, orders, customer, hash workload.Segment
	// probes builds the probe-target generator (nil when ProbeTheta is
	// 0) on the first Threads call. A Zipfian is immutable, so every
	// thread of every trial shares one rather than summing zeta(n) again.
	probes func() *workload.Zipfian
}

// New builds the workload from cfg.
func New(cfg Config) *TPCH {
	if cfg.Threads <= 0 || cfg.Queries <= 0 {
		panic("tpch: invalid config")
	}
	w := &TPCH{cfg: cfg, AddrSpace: workload.NewAddrSpace(cfg.RegionPTEs)}
	w.input = w.Add("input", cfg.InputPages, true, zram.ClassStructured)
	w.lineitem = w.Add("lineitem", cfg.LineitemPages, false, zram.ClassStructured)
	w.orders = w.Add("orders", cfg.OrdersPages, false, zram.ClassStructured)
	w.customer = w.Add("customer", cfg.CustomerPages, false, zram.ClassStructured)
	w.hash = w.Add("hash", cfg.HashPages, false, zram.ClassZeroHeavy)
	w.probes = sync.OnceValue(func() *workload.Zipfian {
		if cfg.ProbeTheta <= 0 {
			return nil
		}
		// Plain (unscrambled) zipfian: hot join keys cluster at the
		// front of the build region, as hash-partitioned builds
		// co-locate popular rows. The clustering is what gives the
		// aging walk's region-level filters something to find.
		return workload.NewZipfian(int64(w.hash.Pages), cfg.ProbeTheta)
	})
	return w
}

// Name implements workload.Workload.
func (w *TPCH) Name() string { return "tpch" }

// pageRange is a [from, to) slice of a segment.
type pageRange struct{ from, to int }

// phase is one stage's per-thread work: a set of page ranges dealt to the
// thread by the (dynamic) task scheduler.
type phase struct {
	seg      workload.Segment
	ranges   []pageRange
	write    bool
	cpu      sim.Duration
	probes   int // probes into probeSeg per scanned page
	probeSeg workload.Segment
	probeWr  bool
	probeCPU sim.Duration
}

// subchunksPerThread is the task granularity: each stage is split into
// this many tasks per executor thread and dealt from a shuffled deck, as
// Spark's dynamic task scheduling does. Which thread processes which
// partition therefore varies per execution — a principal source of the
// paper's run-to-run variation.
const subchunksPerThread = 4

// deal splits [0, total) into n*subchunksPerThread tasks, shuffles them
// with the trial RNG, and deals them round-robin to n threads.
func deal(total, n int, trial *sim.RNG) [][]pageRange {
	pieces := n * subchunksPerThread
	if pieces > total {
		pieces = total
	}
	if pieces == 0 {
		return make([][]pageRange, n)
	}
	chunks := make([]pageRange, pieces)
	for i := range chunks {
		chunks[i] = pageRange{from: total * i / pieces, to: total * (i + 1) / pieces}
	}
	trial.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	out := make([][]pageRange, n)
	for i, c := range chunks {
		out[i%n] = append(out[i%n], c)
	}
	return out
}

// chunk splits [0, total) into the tid-th of n near-equal chunks (static
// partitioning, used for thread-private regions like hash partitions).
func chunk(total, n, tid int) (from, to int) {
	from = total * tid / n
	to = total * (tid + 1) / n
	return from, to
}

// Threads implements workload.Workload: per-thread phase programs with a
// barrier after every stage, exactly one barrier count for all threads.
func (w *TPCH) Threads(plan, trial *sim.RNG) []workload.Stream {
	n := w.cfg.Threads
	// Per-query plan parameters come from the shared workload stream so
	// every trial runs the identical query mix.
	type queryPlan struct {
		frac   float64 // lineitem fraction scanned
		probes int
	}
	plans := make([]queryPlan, w.cfg.Queries)
	for q := range plans {
		plans[q] = queryPlan{
			// The conversion keeps the product from fusing with the sum
			// into one FMA on architectures that have it.
			frac:   0.55 + float64(0.45*plan.Float64()),
			probes: w.cfg.ProbesPerPage + plan.Intn(3),
		}
	}

	perThread := make([][]phase, n)
	addStage := func(seg workload.Segment, total int, mk func(tid int, rs []pageRange) phase) {
		assign := deal(total, n, trial)
		for tid := 0; tid < n; tid++ {
			perThread[tid] = append(perThread[tid], mk(tid, assign[tid]))
		}
	}

	// Startup: read the file-backed input once (buffered I/O).
	addStage(w.input, w.input.Pages, func(tid int, rs []pageRange) phase {
		return phase{seg: w.input, ranges: rs, cpu: w.cfg.ScanCPU}
	})
	for _, pl := range plans {
		li := int(float64(w.lineitem.Pages) * pl.frac)
		// Stage 1: scan+filter lineitem.
		addStage(w.lineitem, li, func(tid int, rs []pageRange) phase {
			return phase{seg: w.lineitem, ranges: rs, cpu: w.cfg.ScanCPU}
		})
		// Stage 2: build — scan orders, write the thread's hash partition.
		addStage(w.orders, w.orders.Pages, func(tid int, rs []pageRange) phase {
			hf, ht := chunk(w.hash.Pages, n, tid)
			return phase{
				seg: w.orders, ranges: rs, cpu: w.cfg.ScanCPU,
				probes: 2, probeSeg: workload.Segment{Name: "hashpart", Base: w.hash.Page(hf), Pages: ht - hf},
				probeWr: true, probeCPU: w.cfg.WriteCPU,
			}
		})
		// Stage 3: probe — rescan lineitem, skewed reads into the whole
		// hash region.
		probes := pl.probes
		addStage(w.lineitem, li, func(tid int, rs []pageRange) phase {
			return phase{
				seg: w.lineitem, ranges: rs, cpu: w.cfg.ScanCPU,
				probes: probes, probeSeg: w.hash, probeCPU: w.cfg.ProbeCPU,
			}
		})
		// Stage 4: aggregate — scan customer, then the hash region.
		addStage(w.customer, w.customer.Pages, func(tid int, rs []pageRange) phase {
			return phase{seg: w.customer, ranges: rs, cpu: w.cfg.ScanCPU}
		})
		addStage(w.hash, w.hash.Pages, func(tid int, rs []pageRange) phase {
			return phase{seg: w.hash, ranges: rs, write: true, cpu: w.cfg.ScanCPU}
		})
	}

	zipf := w.probes()
	streams := make([]workload.Stream, n)
	for tid := 0; tid < n; tid++ {
		streams[tid] = &stream{phases: perThread[tid], rng: plan.Stream(uint64(tid) + 101), zipf: zipf}
	}
	return streams
}

// stream walks a thread's phase program.
type stream struct {
	phases    []phase
	rng       *sim.RNG
	zipf      *workload.Zipfian // skewed probe targets over the hash region
	pi        int               // phase index
	ri        int               // range index within the phase
	pos       int               // page offset within the range
	probeLeft int
	atBarrier bool
}

// probeTarget picks a page within seg: zipfian-skewed when probing the
// full hash region, uniform for thread-private partitions.
func (s *stream) probeTarget(seg workload.Segment) pagetable.VPN {
	if s.zipf != nil && seg.Pages > 64 {
		return seg.Page(int(s.zipf.Next(s.rng)) % seg.Pages)
	}
	return seg.Page(s.rng.Intn(seg.Pages))
}

// Next implements workload.Stream.
func (s *stream) Next(op *workload.Op) bool {
	for {
		if s.pi >= len(s.phases) {
			return false
		}
		ph := &s.phases[s.pi]
		if s.probeLeft > 0 {
			s.probeLeft--
			*op = workload.Op{
				Kind:  workload.OpAccess,
				VPN:   s.probeTarget(ph.probeSeg),
				Write: ph.probeWr,
				CPU:   ph.probeCPU,
			}
			return true
		}
		for s.ri < len(ph.ranges) && s.pos >= ph.ranges[s.ri].to-ph.ranges[s.ri].from {
			s.ri++
			s.pos = 0
		}
		if s.ri >= len(ph.ranges) {
			if !s.atBarrier {
				s.atBarrier = true
				*op = workload.Op{Kind: workload.OpBarrier}
				return true
			}
			s.atBarrier = false
			s.pi++
			s.ri, s.pos = 0, 0
			continue
		}
		page := ph.ranges[s.ri].from + s.pos
		s.pos++
		if ph.probeSeg.Pages > 0 {
			s.probeLeft = ph.probes
		}
		*op = workload.Op{
			Kind:  workload.OpAccess,
			VPN:   ph.seg.Page(page),
			Write: ph.write,
			CPU:   ph.cpu,
		}
		return true
	}
}

var _ workload.Workload = (*TPCH)(nil)
