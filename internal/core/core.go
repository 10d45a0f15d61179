// Package core assembles complete simulated systems — engine, physical
// memory, page table, swap device, replacement policy, memory manager,
// workload threads — and runs single characterization trials. It is the
// heart of the reproduction: everything the experiment harness and the
// public API do goes through RunTrial.
package core

import (
	"fmt"

	"mglrusim/internal/fault"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/vmm"
	"mglrusim/internal/workload"
)

// SwapKind selects the swap medium.
type SwapKind int

const (
	// SwapSSD is the paper's millisecond-class SSD.
	SwapSSD SwapKind = iota
	// SwapZRAM is the paper's compressed in-memory device, a proxy for
	// remote/disaggregated memory tiers.
	SwapZRAM
)

// String implements fmt.Stringer.
func (k SwapKind) String() string {
	if k == SwapZRAM {
		return "zram"
	}
	return "ssd"
}

// PageTableLayout is a frozen, single-valued config field. It once chose
// between two page-table storage layouts; only one remains, so the value
// is always 0 and selects nothing. It is kept so that the %+v cache keys
// ("PageTable:auto") and JSON checkpoint envelopes ("PageTable":0) of
// every stored series stay byte-identical.
type PageTableLayout uint8

// String implements fmt.Stringer with the historical cache-key spelling.
func (PageTableLayout) String() string { return "auto" }

// SystemConfig describes the machine surrounding the workload.
type SystemConfig struct {
	// CPUs is the number of hardware contexts (the paper's testbed
	// exposes 12).
	CPUs int
	// Ratio is memory capacity as a fraction of the workload footprint
	// (the paper sweeps 0.5, 0.75, 0.9).
	Ratio float64
	// Swap selects the medium.
	Swap SwapKind
	// SSD and ZRAM parameterize the respective devices.
	SSD swap.SSDConfig
	// ZRAM parameterizes the compressed device.
	ZRAM swap.ZRAMConfig
	// VMM tunes the memory manager.
	VMM vmm.Config
	// FlushCPU is the workload interpreter's CPU accumulation threshold:
	// accumulated per-access compute is charged to the engine in batches
	// of roughly this size.
	FlushCPU sim.Duration
	// Fault is the fault-injection plan (internal/fault). The zero plan
	// installs no wrapper anywhere, keeping un-faulted runs byte-identical
	// to builds without the fault plane.
	Fault fault.Plan
	// Watchdog, when positive, spawns a virtual-time progress watchdog:
	// if the workload completes no accesses for a full window the trial
	// fails with a *LivelockError instead of spinning forever. Off by
	// default — the watchdog is an extra daemon and so perturbs event
	// ordering slightly; enable it when running with fault injection.
	Watchdog sim.Duration
	// RegionPTEs, when positive, is the page-table region fanout the
	// system expects — the one knob region geometry derives from. The
	// workload must have been laid out with the same fanout (the
	// experiment registry derives workload configs from this knob); a
	// mismatch is a configuration error, not a silent re-layout. Zero
	// accepts whatever fanout the workload was built with.
	RegionPTEs int
	// PageTable is always zero and selects nothing; see PageTableLayout.
	PageTable PageTableLayout
	// PageCache, when Enabled, gives file-backed mappings a real page
	// cache: reads come from a dedicated file device instead of swap,
	// dirty pages write back through a clustered flusher daemon, and
	// evictions leave refault-tracking shadow entries. The zero value
	// (disabled) keeps the historical behaviour where file-backed PTEs
	// swap like anon memory.
	PageCache pagecache.Config
}

// DefaultSystemConfig mirrors the paper's testbed at 50% capacity with
// SSD swap.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		CPUs:     12,
		Ratio:    0.5,
		Swap:     SwapSSD,
		SSD:      swap.DefaultSSDConfig(),
		ZRAM:     swap.DefaultZRAMConfig(),
		VMM:      vmm.DefaultConfig(),
		FlushCPU: 50 * sim.Microsecond,
	}
}

// PolicyFactory builds a fresh policy instance for one trial.
type PolicyFactory func() policy.Policy

// Metrics is everything measured in one trial.
type Metrics struct {
	// Runtime is the virtual wall-clock of the whole execution.
	Runtime sim.Time
	// AppCPU is total CPU work charged by workload threads.
	AppCPU sim.Duration
	// Counters are the memory manager's fault-path counters.
	Counters vmm.Counters
	// Policy are the replacement policy's counters.
	Policy policy.Stats
	// Device are the swap device's counters.
	Device swap.Stats
	// ReadLat / WriteLat hold per-request latencies (request-marking
	// workloads only).
	ReadLat, WriteLat *stats.LatencyRecorder
	// FootprintPages and CapacityPages record the memory geometry.
	FootprintPages, CapacityPages int
	// SegmentFaults attributes major faults to address-space segments.
	SegmentFaults map[string]uint64
	// FaultLat holds per-major-fault service times (trap to PTE install,
	// including device time and injected retries) — the fault-latency CDF
	// the degraded-device sweep plots.
	FaultLat *stats.LatencyRecorder
	// Injected counts what the fault plane injected at the swap device
	// (zero when the plan is disabled or targets only the file device).
	Injected fault.Stats
	// FileInjected counts what the fault plane injected at the file
	// backing device (zero unless a file-targeted plan ran in page-cache
	// mode).
	FileInjected fault.Stats
	// FileCache are the page cache's counters (zero unless page-cache
	// mode ran).
	FileCache pagecache.Stats
	// FileDevice are the file backing device's counters (zero unless
	// page-cache mode ran).
	FileDevice swap.Stats
}

// LivelockError reports a trial whose workload made no progress for a
// full watchdog window: the virtual system is livelocked (or stalled past
// any plausible I/O time) and would otherwise simulate forever. The
// watchdog daemon panics it; the engine surfaces it as the trial error,
// where the experiment harness classifies it as retryable.
type LivelockError struct {
	At     sim.Time
	Window sim.Duration
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("core: no workload progress for %v (livelock watchdog fired at %v)", sim.Time(e.Window), e.At)
}

// Faults is the headline fault count the paper plots.
func (m Metrics) Faults() float64 { return float64(m.Counters.TotalFaults()) }

// RuntimeSeconds is the headline runtime the paper plots.
func (m Metrics) RuntimeSeconds() float64 { return m.Runtime.Seconds() }

// RunTrial executes one complete trial: a fresh system (the simulator
// analogue of the paper's reboot-per-execution), the full workload, and a
// metrics harvest. workloadSeed fixes the request/plan content (identical
// across trials of a configuration); systemSeed varies per trial and
// drives everything nondeterministic in the surrounding system —
// scheduling interleave, bloom hashing, device jitter.
func RunTrial(w workload.Workload, mk PolicyFactory, sys SystemConfig, workloadSeed, systemSeed uint64) (Metrics, error) {
	return RunTrialOpts(w, mk, sys, workloadSeed, systemSeed, TrialOptions{})
}

// TrialOptions bundles the per-trial hooks that are not part of the
// system's identity: SystemConfig stays plain values (it is fingerprinted
// and persisted by the experiment harness), so anything carrying pointers
// or callbacks rides here instead.
type TrialOptions struct {
	// Telemetry, when non-nil, is threaded through the whole stack: the
	// manager, policy, swap devices, and fault plane record spans on it, a
	// sampler daemon snapshots its gauges every Telemetry.MetricsInterval,
	// and workload request/barrier boundaries become events. Telemetry
	// never charges simulated CPU, but its daemon (like the watchdog) is
	// one more proc in the event order: traced runs are deterministic
	// against other traced runs, not byte-identical to untraced ones.
	Telemetry *telemetry.Tracer
}

// FanoutMismatchError reports a system configured for one page-table
// region fanout driving a workload laid out with another — a
// configuration error (both derive from the same RegionPTEs knob), typed
// so validation layers can classify it as a client mistake rather than a
// harness failure.
type FanoutMismatchError struct {
	Want     int    // the system's RegionPTEs
	Have     int    // the workload's layout fanout
	Workload string // workload name
}

func (e *FanoutMismatchError) Error() string {
	return fmt.Sprintf("core: region fanout mismatch: system wants %d-PTE regions but workload %q was laid out with %d",
		e.Want, e.Workload, e.Have)
}

// RunTrialOpts is the fully-optioned trial entry point.
func RunTrialOpts(w workload.Workload, mk PolicyFactory, sys SystemConfig,
	workloadSeed, systemSeed uint64, opts TrialOptions) (Metrics, error) {
	if sys.CPUs <= 0 {
		return Metrics{}, fmt.Errorf("core: CPUs must be positive")
	}
	if sys.Ratio <= 0 || sys.Ratio > 1.5 {
		return Metrics{}, fmt.Errorf("core: implausible capacity ratio %v", sys.Ratio)
	}
	if sys.FlushCPU <= 0 {
		sys.FlushCPU = 50 * sim.Microsecond
	}

	if sys.RegionPTEs > 0 && sys.RegionPTEs != w.RegionPTEs() {
		return Metrics{}, &FanoutMismatchError{Want: sys.RegionPTEs, Have: w.RegionPTEs(), Workload: w.Name()}
	}

	eng := sim.NewEngine(sys.CPUs)
	sysRNG := sim.NewRNG(systemSeed)

	table := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(table)
	footprint := w.FootprintPages()
	capacity := int(float64(footprint) * sys.Ratio)
	if capacity < 16 {
		capacity = 16
	}
	memory := mem.New(capacity)

	var dev swap.Device
	switch sys.Swap {
	case SwapZRAM:
		dev = swap.NewZRAM(sys.ZRAM, sysRNG.Stream(1), w.ContentClass)
	default:
		dev = swap.NewSSD(sys.SSD, eng, sysRNG.Stream(1))
	}

	// The fault wrapper and its RNG streams exist only when the plan
	// injects device faults at this device, so a disabled (or
	// elsewhere-targeted) plan leaves the un-faulted stream sequence —
	// and with it every metric — untouched.
	var fdev *fault.Device
	if sys.Fault.DeviceEnabled() && sys.Fault.TargetsSwap() {
		var backing swap.Device
		if sys.Fault.NeedsBacking() && sys.Swap == SwapZRAM {
			backing = swap.NewSSD(sys.SSD, eng, sysRNG.Stream(4))
		}
		fdev = fault.Wrap(dev, sys.Fault, backing, sysRNG.Stream(5))
		dev = fdev
	}
	if sys.Fault.SwapSlots > 0 {
		sys.VMM.SwapSlots = sys.Fault.SwapSlots
	}

	pol := mk()
	mgr := vmm.New(sys.VMM, eng, memory, table, dev, pol, sysRNG.Stream(2))

	// Page-cache mode: file-backed mappings (the workload's file
	// segments) get their own backing device and a writeback flusher. The
	// cache exists only when enabled AND the workload maps file pages, so
	// anon-only runs keep their exact historical event order. A
	// file-targeted fault plan wraps the backing device on its own RNG
	// stream; the cache degrades kernel-fashion on the errors it returns
	// instead of failing the trial.
	var fc *pagecache.Cache
	var ffdev *fault.Device
	if sys.PageCache.Enabled {
		if spans := fileSpans(w); len(spans) > 0 {
			var filedev swap.Device = swap.NewSSD(sys.PageCache.Backing, eng, sysRNG.Stream(6))
			// The wrapper installs whenever the plan targets the file
			// device, even with all-zero injection configs: an inert
			// wrapper draws no RNG and spawns no procs, so it is
			// byte-invisible (the zero-plan transparency tests pin this),
			// and gating on targeting alone keeps the install decision
			// independent of which knobs the plan happens to set.
			if sys.Fault.TargetsFile() {
				ffdev = fault.WrapFile(filedev, sys.Fault, sysRNG.Stream(7))
				filedev = ffdev
			}
			fc = pagecache.New(sys.PageCache, eng, table, memory, filedev, spans)
			mgr.AttachFileCache(fc)
		}
	}

	// Telemetry wiring. Order matters for byte-determinism of the output:
	// gauges and tracks are exported in registration order, so the sequence
	// below (manager, policy, system-level, device-level) is fixed.
	tr := opts.Telemetry
	if tr != nil {
		tr.Bind(eng.Now)
		mgr.SetTracer(tr)
		if reg, ok := pol.(telemetry.Registrant); ok {
			reg.RegisterTelemetry(tr)
		}
		tr.Gauge("policy.evicted", func() int64 { return int64(pol.Stats().Evicted) })
		tr.Gauge("policy.rotated", func() int64 { return int64(pol.Stats().Rotated) })
		tr.Gauge("policy.refaults", func() int64 { return int64(pol.Stats().Refaults) })
		tr.Gauge("policy.pte_scanned", func() int64 { return int64(pol.Stats().PTEScanned) })
		tr.Gauge("policy.regions_scanned", func() int64 { return int64(pol.Stats().RegionsScanned) })
		tr.Gauge("policy.rmap_walks", func() int64 { return int64(pol.Stats().RMapWalks) })
		tr.Gauge("policy.aging_runs", func() int64 { return int64(pol.Stats().AgingRuns) })
		tr.Gauge("policy.scan_cpu_ns", func() int64 { return int64(pol.Stats().ScanCPU) })
		tr.Gauge("dev.reads", func() int64 { return int64(mgr.DeviceStats().Reads) })
		tr.Gauge("dev.writes", func() int64 { return int64(mgr.DeviceStats().Writes) })
		tr.Gauge("dev.write_stalls", func() int64 { return int64(mgr.DeviceStats().WriteStalls) })
		tr.Gauge("dev.writeback_bytes", func() int64 { return int64(mgr.DeviceStats().Writes) * 4096 })
		tr.Gauge("dev.compressed_bytes", func() int64 { return mgr.DeviceStats().CompressedBytes })
		if ts, ok := dev.(swap.TracerSetter); ok {
			ts.SetTracer(tr)
		}
		if fc != nil {
			fc.RegisterTelemetry(tr)
		}
		if ffdev != nil {
			// The file fault wrapper's own lane; it forwards the tracer to
			// the wrapped backing SSD.
			ffdev.SetTracer(tr)
		}
	}

	// The plan RNG is fixed per configuration ("otherwise identical
	// executions"); the trial RNG drives dynamic task scheduling.
	streams := w.Threads(sim.NewRNG(workloadSeed), sysRNG.Stream(3))
	barrier := sim.NewBarrier(len(streams))
	readLat := stats.NewLatencyRecorder(1024)
	writeLat := stats.NewLatencyRecorder(1024)

	procs := make([]*sim.Proc, len(streams))
	for i, st := range streams {
		st := st
		procs[i] = eng.Spawn(fmt.Sprintf("app-%d", i), false, func(v *sim.Env) {
			runThread(v, st, mgr, barrier, sys.FlushCPU, readLat, writeLat, tr)
		})
	}

	if iv := tr.MetricsInterval(); iv > 0 {
		// The counter sampler is a daemon like kswapd: it perturbs event
		// ordering deterministically and charges no CPU.
		eng.Spawn("telemetry", true, func(v *sim.Env) {
			for {
				tr.Sample()
				v.Sleep(iv)
			}
		})
	}

	if sys.Watchdog > 0 {
		window := sys.Watchdog
		eng.Spawn("watchdog", true, func(v *sim.Env) {
			var last uint64
			for {
				v.Sleep(window)
				// Accesses counts completed workload touches; it freezes
				// exactly when every app thread is stuck (reclaim livelock,
				// permanently stalled device). Daemon-only activity like
				// fruitless kswapd bursts deliberately does not count as
				// progress.
				cur := mgr.Counters().Accesses
				if cur == last {
					panic(&LivelockError{At: v.Now(), Window: window})
				}
				last = cur
			}
		})
	}

	if err := eng.Run(); err != nil {
		return Metrics{}, err
	}
	if err := mgr.AuditErr(); err != nil {
		return Metrics{}, err
	}

	m := Metrics{
		Runtime:        eng.Now(),
		Counters:       mgr.Counters(),
		Policy:         mgr.PolicyStats(),
		Device:         mgr.DeviceStats(),
		ReadLat:        readLat,
		WriteLat:       writeLat,
		FaultLat:       mgr.FaultLatencies(),
		FootprintPages: footprint,
		CapacityPages:  capacity,
	}
	if fdev != nil {
		m.Injected = fdev.FaultStats()
	}
	if ffdev != nil {
		m.FileInjected = ffdev.FaultStats()
	}
	if fc != nil {
		m.FileCache = fc.Stats()
		m.FileDevice = fc.DeviceStats()
	}
	for _, p := range procs {
		m.AppCPU += p.CPUTime()
	}
	m.SegmentFaults = map[string]uint64{}
	for _, s := range w.Segments() {
		var total uint64
		for i := 0; i < s.Pages; i++ {
			total += mgr.MajorFaultsAt(s.Page(i))
		}
		m.SegmentFaults[s.Name] = total
	}
	return m, nil
}

// fileSpans lists the page cache's file mappings: w's file-backed
// segments, in address order. AddrSpace leaves a hole before every
// segment, so each is exactly one maximal run of file-backed VPNs.
func fileSpans(w workload.Workload) []pagecache.FileSpan {
	var spans []pagecache.FileSpan
	for _, s := range w.Segments() {
		if s.File {
			spans = append(spans, pagecache.FileSpan{
				Name:  fmt.Sprintf("file-%d", len(spans)),
				Base:  s.Base,
				Pages: s.Pages,
			})
		}
	}
	return spans
}

// runThread interprets one workload op stream against the memory manager.
// Per-access CPU is accumulated and charged in batches so the hot path
// (resident accesses) touches the engine only at flush points — faults,
// barriers, request boundaries, or when the accumulator fills.
func runThread(v *sim.Env, st workload.Stream, mgr *vmm.Manager, barrier *sim.Barrier,
	flushAt sim.Duration, readLat, writeLat *stats.LatencyRecorder, tr *telemetry.Tracer) {
	var acc sim.Duration
	var reqStart sim.Time
	var reqClass workload.ReqClass
	var track telemetry.TrackID
	if tr != nil {
		track = tr.Track(v.Proc().Name())
	}
	flush := func() {
		if acc > 0 {
			v.Charge(acc)
			acc = 0
		}
	}
	var op workload.Op
	for st.Next(&op) {
		switch op.Kind {
		case workload.OpAccess:
			acc += op.CPU
			if !mgr.TryTouch(op.VPN, op.Write) {
				flush()
				mgr.Fault(v, op.VPN, op.Write)
			} else if acc >= flushAt {
				flush()
			}
		case workload.OpCompute:
			acc += op.CPU
			if acc >= flushAt {
				flush()
			}
		case workload.OpBarrier:
			flush()
			if tr != nil {
				// Workload phase boundary: barriers separate the phases of
				// phase-structured workloads (pagerank iterations, tpch query
				// stages).
				tr.Instant(track, "barrier", 0)
			}
			barrier.Await(v)
		case workload.OpReqStart:
			flush()
			reqStart = v.Now()
			reqClass = op.Class
		case workload.OpReqEnd:
			flush()
			lat := int64(v.Now() - reqStart)
			if reqClass == workload.ReqRead {
				readLat.Record(lat)
			} else {
				writeLat.Record(lat)
			}
			if tr != nil {
				name := "req-write"
				if reqClass == workload.ReqRead {
					name = "req-read"
				}
				tr.Emit(track, name, reqStart, lat, lat)
			}
		}
	}
	flush()
}
