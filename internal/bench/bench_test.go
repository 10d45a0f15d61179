// Package bench holds micro benchmarks over the simulator's hot paths:
// the fault/evict cycle, MG-LRU aging walks, Clock's scan, rmap chases,
// the page cache, telemetry spans, a full-scale-geometry fault path, the
// engine's switch from one proc to another (by coroutine and by an inline
// step), a ZRAM swap-out, the decode of a checkpointed series, the tail
// percentiles of a merged fault series and a YCSB key draw.
//
//	go test -run '^$' -bench . -benchmem ./internal/bench
//
// End-to-end host time (the figure matrix, the page-cache figures, a
// server sweep) is measured on the same host by the benchmark/ module;
// see benchmark/README.md.
package bench

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	policypkg "mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	policytestutil "mglrusim/internal/policy/policytest"
	"mglrusim/internal/policy/simple"
	"mglrusim/internal/rmap"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/vmm"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

const (
	benchFrames  = 256
	benchRegions = 1 // 512 mapped pages: a 2x over-commit against benchFrames
)

// Each body below performs its operation n times and calls reset once
// its set-up is done, so a benchmark times only the n operations.

func BenchmarkFaultPath(b *testing.B) {
	b.ReportAllocs()
	benchFaultPath(b.N, b.ResetTimer)
}

func BenchmarkMGLRUAgingWalk(b *testing.B) {
	b.ReportAllocs()
	benchAgingWalk(b.N, b.ResetTimer)
}

func BenchmarkAgingWalkDense(b *testing.B) {
	b.ReportAllocs()
	benchAgingWalkDense(b.N, b.ResetTimer)
}

func BenchmarkBloomSkipWalk(b *testing.B) {
	b.ReportAllocs()
	benchBloomSkipWalk(b.N, b.ResetTimer)
}

func BenchmarkClockScan(b *testing.B) {
	b.ReportAllocs()
	benchClockScan(b.N, b.ResetTimer)
}

func BenchmarkRMapChase(b *testing.B) {
	b.ReportAllocs()
	benchRMapChase(b.N, b.ResetTimer)
}

func BenchmarkFileFaultPath(b *testing.B) {
	b.ReportAllocs()
	benchFileFaultPath(b.N, b.ResetTimer)
}

func BenchmarkWritebackCluster(b *testing.B) {
	b.ReportAllocs()
	benchWritebackCluster(b.N, b.ResetTimer)
}

func BenchmarkRefaultShadowLookup(b *testing.B) {
	b.ReportAllocs()
	benchRefaultShadowLookup(b.N, b.ResetTimer)
}

func BenchmarkTelemetrySpan(b *testing.B) {
	b.ReportAllocs()
	benchTelemetrySpan(b.N, b.ResetTimer)
}

func BenchmarkFullScaleFaultPath(b *testing.B) {
	b.ReportAllocs()
	benchFullScaleFaultPath(b.N, b.ResetTimer)
}

func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	benchProcSwitch(b.N, b.ResetTimer)
}

func BenchmarkStepSwitch(b *testing.B) {
	b.ReportAllocs()
	benchStepSwitch(b.N, b.ResetTimer)
}

func BenchmarkContendedReclaim(b *testing.B) {
	b.ReportAllocs()
	benchContendedReclaim(b.N, b.ResetTimer)
}

func BenchmarkZRAMWrite(b *testing.B) {
	b.ReportAllocs()
	benchZRAMWrite(b.N, b.ResetTimer)
}

func BenchmarkSeriesDecode(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(storedSeries())))
	benchSeriesDecode(b.N, b.ResetTimer)
}

func BenchmarkMergedTail(b *testing.B) {
	b.ReportAllocs()
	benchMergedTail(b.N, b.ResetTimer)
}

func BenchmarkZipfianNext(b *testing.B) {
	b.ReportAllocs()
	benchZipfianNext(b.N, b.ResetTimer)
}

// TestSuiteRunsTiny runs every benchmark body at a small op count, so a
// plain `go test` exercises each hot path the benchmarks time.
func TestSuiteRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs the benchmark bodies")
	}
	suite := []struct {
		name string
		fn   func(n int, reset func())
		ops  int
	}{
		{"fault-path", benchFaultPath, 16},
		{"mglru-aging-walk", benchAgingWalk, 16},
		{"aging-walk-dense", benchAgingWalkDense, 16},
		{"bloom-skip-walk", benchBloomSkipWalk, 16},
		{"clock-scan", benchClockScan, 16},
		{"rmap-chase", benchRMapChase, 16},
		{"file-fault-path", benchFileFaultPath, 16},
		{"writeback-cluster", benchWritebackCluster, 16},
		{"refault-shadow-lookup", benchRefaultShadowLookup, 16},
		{"telemetry-span", benchTelemetrySpan, 16},
		// Enough faults to cycle the 4096-frame memory through reclaim.
		{"fullscale-fault-path", benchFullScaleFaultPath, 20000},
		{"proc-switch", benchProcSwitch, 16},
		{"step-switch", benchStepSwitch, 16},
		{"contended-reclaim", benchContendedReclaim, 16},
		{"zram-write", benchZRAMWrite, 16},
		{"series-decode", benchSeriesDecode, 2},
		{"merged-tail", benchMergedTail, 2},
		{"zipf-draw", benchZipfianNext, 16},
	}
	for _, s := range suite {
		t.Run(s.name, func(t *testing.T) { s.fn(s.ops, func() {}) })
	}
}

// TestBloomSkipRatio pins the property the bloom-skip-walk benchmark
// leans on: with every region resident but only 2 of 64 ever
// re-accessed, the bloom-gated aging walk scans well under half the
// regions Scan-All does over the identical access pattern.
func TestBloomSkipRatio(t *testing.T) {
	run := func(cfg mglru.Config) uint64 {
		const regions = 64
		perRegion := benchFrames / regions
		k := policytestutil.New(benchFrames, regions, 7)
		p := mglru.New(cfg)
		p.Attach(k)
		policytestutil.Run(func(v *sim.Env) {
			for r := 0; r < regions; r++ {
				base := pagetable.VPN(r * pagetable.PTEsPerRegion)
				for i := 0; i < perRegion; i++ {
					k.FaultIn(v, p, base+pagetable.VPN(i), false, false)
				}
			}
			hot := []pagetable.VPN{0, pagetable.VPN(32 * pagetable.PTEsPerRegion)}
			for i := 0; i < 32; i++ {
				for _, base := range hot {
					for j := 0; j < perRegion; j++ {
						k.Touch(base+pagetable.VPN(j), false)
					}
				}
				p.Age(v)
			}
		})
		return p.Stats().RegionsScanned
	}
	bloom := run(mglru.Default())
	all := run(mglru.ScanAll())
	if all == 0 {
		t.Fatal("scan-all walked no regions; the scenario exercises nothing")
	}
	if bloom*2 >= all {
		t.Fatalf("bloom-gated walk scanned %d regions vs scan-all's %d; expected under half", bloom, all)
	}
	t.Logf("bloom-skip ratio: %d/%d regions scanned (%.0f%% skipped)",
		bloom, all, 100*(1-float64(bloom)/float64(all)))
}

// benchFaultPath drives the fault/evict cycle with the scan-free FIFO
// policy: every op is one page fault including the reclaim that makes
// room for it. Isolates PageIn/Reclaim/EvictPage plus table bookkeeping.
func benchFaultPath(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	p := simple.NewFIFO()
	p.Attach(k)
	pages := pagetable.VPN(k.T.Pages())
	policytestutil.Run(func(v *sim.Env) {
		reset()
		for i := 0; i < n; i++ {
			vpn := pagetable.VPN(i) % pages
			if k.Touch(vpn, i%3 == 0) {
				continue
			}
			for k.M.FreePages() == 0 {
				if p.Reclaim(v, 1) == 0 {
					p.Age(v)
				}
			}
			k.FaultIn(v, p, vpn, false, false)
		}
	})
}

// benchAgingWalk measures one MG-LRU aging pass over a populated table
// (ModeAll: every region is scanned, the paper's Scan-All variant). Each
// op re-touches a working set then walks, matching steady-state aging.
func benchAgingWalk(n int, reset func()) {
	k := policytestutil.New(benchFrames, 4, 7)
	p := mglru.New(mglru.ScanAll())
	p.Attach(k)
	policytestutil.Run(func(v *sim.Env) {
		// Populate: one resident page per free frame, spread over regions.
		stride := pagetable.VPN(k.T.Pages() / benchFrames)
		for i := 0; i < benchFrames; i++ {
			k.FaultIn(v, p, pagetable.VPN(i)*stride, false, false)
		}
		reset()
		for i := 0; i < n; i++ {
			for j := 0; j < 64; j++ {
				k.Touch(pagetable.VPN((i*31+j)%benchFrames)*stride, false)
			}
			p.Age(v)
		}
	})
}

// benchAgingWalkDense measures the aging walk's best case for the packed
// layout: full-fanout (512-PTE) regions with every PTE resident, so
// HarvestRegion runs whole 64-bit present∩accessed words instead of
// skipping holes. Each op re-touches a spread working set then walks.
func benchAgingWalkDense(n int, reset func()) {
	const regions = 4
	frames := regions * pagetable.PTEsPerRegion
	k := policytestutil.New(frames, regions, 7)
	p := mglru.New(mglru.ScanAll())
	p.Attach(k)
	policytestutil.Run(func(v *sim.Env) {
		for i := 0; i < frames; i++ {
			k.FaultIn(v, p, pagetable.VPN(i), false, false)
		}
		reset()
		for i := 0; i < n; i++ {
			for j := 0; j < 256; j++ {
				k.Touch(pagetable.VPN((i*97+j*17)%frames), false)
			}
			p.Age(v)
		}
	})
}

// benchBloomSkipWalk measures the bloom-gated aging walk (the kernel
// default) over a table where every region holds resident pages but only
// two are ever re-accessed: after the cold-start walk the filter admits
// just the dense regions, so ns/op tracks the cost of gating past
// resident-but-idle regions, not of scanning them. The companion
// TestBloomSkipRatio asserts the skip ratio itself.
func benchBloomSkipWalk(n int, reset func()) {
	const regions = 64
	perRegion := benchFrames / regions // thin residency everywhere
	k := policytestutil.New(benchFrames, regions, 7)
	p := mglru.New(mglru.Default())
	p.Attach(k)
	policytestutil.Run(func(v *sim.Env) {
		for r := 0; r < regions; r++ {
			base := pagetable.VPN(r * pagetable.PTEsPerRegion)
			for i := 0; i < perRegion; i++ {
				k.FaultIn(v, p, base+pagetable.VPN(i), false, false)
			}
		}
		reset()
		hot := []pagetable.VPN{0, pagetable.VPN(32 * pagetable.PTEsPerRegion)}
		for i := 0; i < n; i++ {
			for _, base := range hot {
				for j := 0; j < perRegion; j++ {
					k.Touch(base+pagetable.VPN(j), false)
				}
			}
			p.Age(v)
		}
	})
}

// benchClockScan is the fault cycle under Clock: each op's reclaim runs
// the two-list second-chance scan with its rmap resolutions.
func benchClockScan(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	p := clock.New(clock.DefaultConfig())
	p.Attach(k)
	pages := pagetable.VPN(k.T.Pages())
	policytestutil.Run(func(v *sim.Env) {
		reset()
		for i := 0; i < n; i++ {
			vpn := pagetable.VPN(i) % pages
			if k.Touch(vpn, false) {
				continue
			}
			for k.M.FreePages() == 0 {
				if p.Reclaim(v, 1) == 0 {
					p.Age(v)
				}
			}
			k.FaultIn(v, p, vpn, false, false)
		}
	})
}

// benchRMapChase measures raw reverse-map resolutions with the default
// (jittered) cost model — the pointer-chase Clock pays per scanned page.
func benchRMapChase(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	p := simple.NewFIFO()
	p.Attach(k)
	r := rmap.New(k.M, rmap.DefaultCostModel(), sim.NewRNG(11))
	policytestutil.Run(func(v *sim.Env) {
		for i := 0; i < benchFrames; i++ {
			k.FaultIn(v, p, pagetable.VPN(i), false, false)
		}
		reset()
		for i := 0; i < n; i++ {
			r.Walk(mem.FrameID(i % benchFrames))
		}
	})
}

// benchCache builds a page cache spanning the kernel double's whole
// table, flusher off (Enabled false skips the daemon; the writeback
// machinery still works when called directly), so benches measure the
// cache's bookkeeping without background scheduling noise.
func benchCache(k *policytestutil.Kernel, eng *sim.Engine) *pagecache.Cache {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	dev := swap.NewSSD(swap.DefaultSSDConfig(), eng, sim.NewRNG(11))
	spans := []pagecache.FileSpan{{Name: "f0", Base: 0, Pages: k.T.Pages()}}
	return pagecache.New(cfg, eng, k.T, k.M, dev, spans)
}

// benchFileFaultPath is benchFaultPath with every page file-backed under
// default MG-LRU: each miss takes the page's shadow from the vmm's store
// and pays the cache's demand-read service, each eviction records a
// shadow and pages out if dirty — the full file major-fault cycle the
// ext2 figures spend their time in.
func benchFileFaultPath(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	p := mglru.New(mglru.Default())
	p.Attach(k)
	eng := sim.NewEngine(4)
	c := benchCache(k, eng)
	shadows := vmm.NewShadows(k.T.Pages())
	// An eviction hook must not block, so a dirty page's write waits
	// for its Reclaim to return.
	var dirty []pagetable.VPN
	k.OnEvict = func(v *sim.Env, vpn pagetable.VPN, sh policypkg.Shadow) {
		shadows.Record(vpn, sh)
		c.RecordEviction(vpn)
		if c.ClearDirty(vpn) {
			dirty = append(dirty, vpn)
		}
	}
	pages := pagetable.VPN(k.T.Pages())
	eng.Spawn("bench", false, func(v *sim.Env) {
		// One cursor and step for every page-out, so a page-out
		// allocates nothing.
		var w swap.WriteWalk
		pageOut := func() bool { return c.PageOutStep(v, &w) }
		reset()
		for i := 0; i < n; i++ {
			vpn := pagetable.VPN(i) % pages
			if k.Touch(vpn, i%8 == 0) {
				if i%8 == 0 {
					c.MarkDirty(vpn)
				}
				continue
			}
			for k.M.FreePages() == 0 {
				if p.Reclaim(v, 1) == 0 {
					p.Age(v)
				}
				for _, d := range dirty {
					w = c.BeginPageOut(d)
					if pageOut() {
						v.Suspend(pageOut)
					}
				}
				dirty = dirty[:0]
			}
			refault := shadows.Take(vpn) != nil
			c.ReadPage(v, vpn)
			c.NoteResident(vpn, refault)
			if refault {
				c.NoteRefault()
			}
			k.FaultIn(v, p, vpn, false, true)
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
}

// benchWritebackCluster measures one flusher pass's clustering: each op
// dirties strided runs across the file mapping (adjacent dirty pages the
// flusher must merge into extents, gaps it must split on) and drains them
// with FlushAll.
func benchWritebackCluster(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	eng := sim.NewEngine(4)
	c := benchCache(k, eng)
	pages := k.T.Pages()
	eng.Spawn("bench", false, func(v *sim.Env) {
		reset()
		for i := 0; i < n; i++ {
			for run := 0; run < 8; run++ {
				base := (i*67 + run*61) % (pages - 16)
				for j := 0; j < 16; j++ {
					c.MarkDirty(pagetable.VPN(base + j))
				}
			}
			c.FlushAll(v)
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
}

// benchRefaultShadowLookup measures the vmm's shadow-entry store: each
// op is one Has probe plus a Take consume and a Record refill, over a
// fully populated store — the per-fault overhead refault classification
// adds to every page-in.
func benchRefaultShadowLookup(n int, reset func()) {
	pages := benchRegions * pagetable.PTEsPerRegion
	shadows := vmm.NewShadows(pages)
	for i := 0; i < pages; i++ {
		shadows.Record(pagetable.VPN(i), policypkg.Shadow{Gen: uint64(i), Tier: uint8(i % 4)})
	}
	reset()
	for i := 0; i < n; i++ {
		vpn := pagetable.VPN((i * 31) % pages)
		if !shadows.Has(vpn) {
			panic("bench: shadow set should stay fully populated")
		}
		sh := shadows.Take(vpn)
		shadows.Record(vpn, *sh)
	}
}

// benchTelemetrySpan measures one recorded span (Begin + EndArg) on a
// live tracer — the marginal cost a traced run pays per instrumented
// event. The nil-tracer (tracing off) cost is part of every other
// benchmark's ns/op.
func benchTelemetrySpan(n int, reset func()) {
	tr := telemetry.New(telemetry.Config{MaxEvents: n})
	var now sim.Time
	tr.Bind(func() sim.Time { return now })
	track := tr.Track("bench")
	reset()
	for i := 0; i < n; i++ {
		now = sim.Time(i)
		sp := tr.Begin(track, "op")
		now++
		sp.EndArg(int64(i))
	}
}

// benchFullScaleFaultPath drives the fault/evict cycle against a
// full-scale table: 8192 regions of 512 PTEs — 4.19M mapped pages, the
// paper's native footprint band — over a small physical memory, with
// faults striding across the whole span. Bounds the per-fault cost of
// the packed layout's bookkeeping at the geometry full-scale runs use.
func benchFullScaleFaultPath(n int, reset func()) {
	const regions = 8192
	k := policytestutil.New(4096, regions, 7)
	p := simple.NewFIFO()
	p.Attach(k)
	pages := uint64(k.T.Pages())
	policytestutil.Run(func(v *sim.Env) {
		reset()
		const stride = 524287 // prime ≈ pages/8: consecutive faults land in distant regions
		for i := 0; i < n; i++ {
			vpn := pagetable.VPN(uint64(i) * stride % pages)
			if k.Touch(vpn, false) {
				continue
			}
			for k.M.FreePages() == 0 {
				if p.Reclaim(v, 1) == 0 {
					p.Age(v)
				}
			}
			k.FaultIn(v, p, vpn, false, false)
		}
	})
}

// benchProcSwitch measures one engine context switch: two procs on one
// CPU take turns through a Cond, so each op is a Signal, a Wait and the
// handoff from the waiting proc to the signalled one.
func benchProcSwitch(n int, reset func()) {
	eng := sim.NewEngine(1)
	var c sim.Cond
	turn := 0
	for id := 0; id < 2; id++ {
		eng.Spawn("ping", false, func(v *sim.Env) {
			if id == 0 {
				reset()
			}
			for i := id; i < n; i += 2 {
				for turn%2 != id {
					v.Wait(&c)
				}
				turn++
				c.Signal(v.Engine())
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
}

// benchStepSwitch measures one switch between suspended procs: two procs
// on one CPU take turns through TryCharge, so each op is a charge that
// parks its proc and a wakeup of the other one, whose step the dispatch
// loop runs inline, with no coroutine switch.
func benchStepSwitch(n int, reset func()) {
	eng := sim.NewEngine(1)
	ops := 0
	for id := 0; id < 2; id++ {
		eng.Spawn("step", false, func(v *sim.Env) {
			step := func() bool {
				for ops < n {
					ops++
					if !v.TryCharge(sim.Microsecond) {
						return true
					}
				}
				return false
			}
			if id == 0 {
				reset()
			}
			if step() {
				v.Suspend(step)
			}
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
}

// benchContendedReclaim measures MG-LRU direct reclaim on a contended
// CPU: one proc reclaims a batch of 8 pages from full memory and faults 8
// pages back in, while a second proc on the same CPU charges CPU in 10 µs
// slices, so the pass's charges and lock waits park it. Each op is one
// Reclaim plus its refill.
func benchContendedReclaim(n int, reset func()) {
	k := policytestutil.New(benchFrames, benchRegions, 7)
	p := mglru.New(mglru.Default())
	p.Attach(k)
	eng := sim.NewEngine(1)
	pages := pagetable.VPN(k.T.Pages())
	done := false
	eng.Spawn("reclaim", false, func(v *sim.Env) {
		next := pagetable.VPN(0)
		fill := func() {
			for k.M.FreePages() > 0 {
				if !k.T.IsPresent(next) {
					k.FaultIn(v, p, next, false, false)
				}
				next = (next + 1) % pages
			}
		}
		fill()
		reset()
		for i := 0; i < n; i++ {
			for j := pagetable.VPN(0); j < 32; j++ {
				k.Touch((next+j*7)%pages, false)
			}
			if p.Reclaim(v, 8) == 0 {
				p.Age(v)
			}
			fill()
		}
		done = true
	})
	eng.Spawn("charge", false, func(v *sim.Env) {
		step := func() bool {
			for !done {
				if !v.TryCharge(10 * sim.Microsecond) {
					return true
				}
			}
			return false
		}
		if step() {
			v.Suspend(step)
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
}

// benchZRAMWrite measures one ZRAM swap-out and the release of its slot
// in steady state: each op writes one of a repeating set of 1,024 page
// contents (all three content classes), each already written once before
// timing starts, the reuse across trials the figure matrix shows.
func benchZRAMWrite(n int, reset func()) {
	const contents = 1024
	d := swap.NewZRAM(swap.DefaultZRAMConfig(), sim.NewRNG(11),
		func(vpn int64) zram.ContentClass { return zram.ContentClass(vpn % 3) })
	policytestutil.Run(func(v *sim.Env) {
		// One cursor and step for every write, so a write allocates
		// nothing.
		var w swap.WriteWalk
		step := func() bool { return d.WriteStep(v, &w) }
		write := func(i int) {
			slot := swap.Slot(i % 64)
			w = swap.WriteWalk{Slot: slot, VPN: int64(i % contents), Version: 1}
			if step() {
				v.Suspend(step)
			}
			if w.Err != nil {
				panic(w.Err)
			}
			d.FreeSlot(slot)
		}
		for i := 0; i < contents; i++ {
			write(i)
		}
		reset()
		for i := 0; i < n; i++ {
			write(i)
		}
	})
}

// storedSeries is one artifact of the paper matrix as the checkpoint
// store holds it: fig3's ycsb-a/clock cell at 2 trials and scale 0.2,
// under pagebench's default seed. Raw latency samples are most of its
// bytes, as they are of every tail-figure artifact. It is built once per
// process, by running the cell into a temporary store.
var storedSeries = sync.OnceValue(func() []byte {
	dir, err := os.MkdirTemp("", "series-decode")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Open(dir)
	if err != nil {
		panic(err)
	}
	const scale = 0.2
	r := experiments.NewRunner(experiments.Options{Trials: 2, Scale: scale, Seed: 0x5EED, Parallelism: 2, Checkpoint: store})
	w := experiments.WorkloadByName("ycsb-a", scale)
	if _, err := r.Run(w, experiments.PolicyByName(experiments.PolClock), experiments.SystemAt(0.5, core.SwapSSD)); err != nil {
		panic(err)
	}
	hashes := store.Hashes()
	if len(hashes) != 1 {
		panic("the cell left no single artifact in the store")
	}
	blob, ok := store.GetHash(hashes[0])
	if !ok {
		panic("stored artifact unreadable")
	}
	return blob
})

// benchSeriesDecode measures what a cached cell costs the sweep server
// and a resumed figure run: one stored artifact parsed through
// SummarizeSeriesBlob, sample arrays included.
func benchSeriesDecode(n int, reset func()) {
	blob := storedSeries()
	reset()
	for i := 0; i < n; i++ {
		if _, _, ok := experiments.SummarizeSeriesBlob(blob); !ok {
			panic("stored artifact rejected")
		}
	}
}

// benchMergedTail measures what one tail row of the page-cache figures
// costs once its series is decoded: the paper's tail points over the
// major-fault latencies of two trials taken together. Each trial holds
// 15,000 samples, about what one ext2/ext3 cell records per trial at
// scale 1, nearly all of them distinct.
func benchMergedTail(n int, reset func()) {
	rng := rand.New(rand.NewSource(24))
	s := &experiments.Series{Trials: make([]core.Metrics, 2)}
	for i := range s.Trials {
		lat := stats.NewLatencyRecorder(15_000)
		for j := 0; j < 15_000; j++ {
			ns := 80_000 + rng.Int63n(40_000)
			if rng.Intn(100) == 0 {
				ns += rng.Int63n(5_000_000) // a device stall
			}
			lat.Record(ns)
		}
		s.Trials[i].FaultLat = lat
	}
	reset()
	for i := 0; i < n; i++ {
		tailSink = s.MergedFaultTail()
	}
}

// tailSink keeps the compiler from dropping the timed call.
var tailSink []float64

// benchZipfianNext draws YCSB keys: a scrambled Zipfian at theta 0.99
// over ycsb's scale-1 item count.
func benchZipfianNext(n int, reset func()) {
	z := workload.NewScrambledZipfian(14000, workload.YCSBTheta)
	rng := sim.NewRNG(5)
	reset()
	for i := 0; i < n; i++ {
		keySink += z.Next(rng)
	}
}

// keySink keeps the compiler from dropping the timed draws.
var keySink int64
