// Package vmm is the simulated memory manager: it owns the fault path,
// swap-in/swap-out, watermark-driven background reclaim (kswapd), direct
// reclaim, and the background aging task that MG-LRU's design assumes.
// It implements policy.Kernel, so replacement policies plug in unchanged.
package vmm

import (
	"fmt"

	"mglrusim/internal/check"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/rmap"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
)

// Config tunes memory-manager behaviour.
type Config struct {
	// MajorFaultOverhead is the CPU cost of trap + handler + PTE fixup
	// for a fault served from swap (excluding device time).
	MajorFaultOverhead sim.Duration
	// MinorFaultOverhead is the CPU cost of a first-touch (zero-fill)
	// fault.
	MinorFaultOverhead sim.Duration
	// ReclaimBatch is how many pages one direct-reclaim burst requests.
	ReclaimBatch int
	// KswapdBatch is how many pages one kswapd burst requests.
	KswapdBatch int
	// AgingPoll is the aging daemon's poll period when idle.
	AgingPoll sim.Duration
	// ProactiveAging makes the aging daemon run a pass every
	// ProactiveInterval even without a request, harvesting accessed bits
	// the way periodic kernel scans do. Zero disables.
	ProactiveInterval sim.Duration
	// ReadaheadWindow is the swap cluster size (the kernel's
	// 2^page_cluster, default 8): a demand fault also pulls in the other
	// swapped-out pages of its aligned slot cluster. Zero disables.
	// Readahead effectiveness depends on slot-layout luck — pages
	// evicted together get adjacent slots — which is a principal source
	// of run-to-run fault-count variation.
	ReadaheadWindow int
	// RMapCost is the reverse-map walk cost model.
	RMapCost rmap.CostModel
	// SwapSlots caps the swap area at this many slots (zero sizes it to
	// the footprint plus slack, which can never fill). A cap makes
	// swap-area exhaustion reachable, which triggers the badness-score
	// OOM-killer model instead of the historical panic.
	SwapSlots int
	// Audit enables the invariant auditor (package check): bookkeeping
	// invariants are asserted at fault-in, eviction, and aging
	// checkpoints. Off by default; when off the only cost is a nil check
	// per checkpoint. The auditor never charges simulated CPU, so
	// enabling it does not change metrics.
	Audit bool
	// AuditEvery overrides the auditor's full-state scan cadence
	// (checkpoints per O(pages) sweep). Zero keeps the auditor default.
	AuditEvery int
}

// DefaultConfig returns calibrated defaults.
func DefaultConfig() Config {
	return Config{
		MajorFaultOverhead: 1500 * sim.Nanosecond,
		MinorFaultOverhead: 800 * sim.Nanosecond,
		ReclaimBatch:       32,
		KswapdBatch:        64,
		AgingPoll:          1 * sim.Millisecond,
		ProactiveInterval:  20 * sim.Millisecond,
		ReadaheadWindow:    8,
		RMapCost:           rmap.DefaultCostModel(),
	}
}

// Counters aggregates fault-path activity for a trial.
type Counters struct {
	MajorFaults    uint64
	MinorFaults    uint64
	SwapIns        uint64
	SwapOuts       uint64
	DirectReclaims uint64
	KswapdBursts   uint64
	Accesses       uint64
	ReadaheadIn    uint64 // pages brought in speculatively by readahead
	ReadaheadHits  uint64 // prefetched pages touched before eviction
	ReadaheadWaste uint64 // prefetched pages evicted untouched
	FileFaults     uint64 // faults served through the file page cache
	FileWritebacks uint64 // dirty file pages written back at eviction (flusher writes live in pagecache.Stats)
	FileAccesses   uint64 // resident (hit) touches of file-backed pages; hit ratio = hits/(hits+FileFaults)
	OOMKills       uint64 // swap-exhaustion OOM victim selections
	OOMReapedSlots uint64 // swap slots reclaimed by the OOM reaper
}

// TotalFaults is the figure the paper plots: demand faults of both kinds.
func (c Counters) TotalFaults() uint64 { return c.MajorFaults + c.MinorFaults }

type shadowEntry struct {
	sh    policy.Shadow
	valid bool
}

// Manager is the simulated memory-management subsystem for one process.
type Manager struct {
	cfg   Config
	eng   *sim.Engine
	memry *mem.Memory
	table *pagetable.Table
	rm    *rmap.Map
	dev   swap.Device
	area  *swap.Area
	pol   policy.Policy
	rng   *sim.RNG

	// Per-VPN metadata is indexed over the whole VA span (holes included),
	// so at full scale it lives in chunked arenas that materialize on
	// first write — O(touched chunks), not O(pages).
	shadows   *mem.Arena[shadowEntry] // per VPN
	versions  *mem.Arena[uint32]      // per VPN dirty-content version
	faultsAt  *mem.Arena[uint32]      // per VPN major-fault counts (analysis tools)
	slotOwner *mem.Arena[int64]       // per swap slot: owning VPN, -1 if unassigned

	kswapdCond sim.Cond
	agingReq   bool
	// evicts runs EvictPage's evictions, whose cursors EvictStep hands
	// on to the devices.
	evicts sim.Stepper[policy.EvictWalk]
	// agingRef, when set by SetAgingDaemon, runs in place of agingDaemon.
	agingRef func(v *sim.Env, requested *bool)

	// Adaptive readahead state, per page-table region (the kernel's
	// swap readahead adapts per VMA): raShift[r] bounds region r's
	// window to 1<<raShift[r], adjusted from recent hit/miss outcomes.
	// Sequential segments keep large windows; randomly accessed ones
	// collapse to zero.
	raShift    []int8
	raHits     []int16
	raOutcomes []int16
	raMaxShift int8

	// fc, when non-nil, is the file page cache: file-backed pages fault
	// through it and write back to its device instead of swap. Nil (the
	// default) keeps the historical behaviour where file-backed PTEs swap
	// like anon memory.
	fc *pagecache.Cache

	// audit, when non-nil, receives checkpoint events; every checkpoint
	// call below sits before the next possible yield point so the auditor
	// always observes a consistent intermediate state.
	audit *check.Auditor

	// faultLat records end-to-end major-fault service times (trap to PTE
	// install, including device time and retries). Recording is host-side
	// only — it never charges simulated CPU or yields — so it cannot
	// perturb the simulation.
	faultLat *stats.LatencyRecorder

	// tr, when non-nil, receives telemetry spans and gauges. Like audit,
	// tracing off costs one nil check per instrumented site; the manager
	// never charges simulated CPU for recording, so enabling it does not
	// change metrics.
	tr       *telemetry.Tracer
	trKswapd telemetry.TrackID
	trAging  telemetry.TrackID

	counters Counters
}

// New wires a Manager and spawns its kswapd and aging daemons on eng.
// The table's mapped ranges must be final before New is called (swap is
// sized from them).
func New(cfg Config, eng *sim.Engine, memry *mem.Memory, table *pagetable.Table,
	dev swap.Device, pol policy.Policy, rng *sim.RNG) *Manager {
	if cfg.ReclaimBatch <= 0 {
		cfg.ReclaimBatch = 32
	}
	if cfg.KswapdBatch <= 0 {
		cfg.KswapdBatch = 64
	}
	if cfg.AgingPoll <= 0 {
		cfg.AgingPoll = 1 * sim.Millisecond
	}
	slots := table.Pages() + 64
	if cfg.SwapSlots > 0 && cfg.SwapSlots < slots {
		slots = cfg.SwapSlots
	}
	m := &Manager{
		cfg:       cfg,
		eng:       eng,
		memry:     memry,
		table:     table,
		dev:       dev,
		pol:       pol,
		rng:       rng.Stream(0x7a),
		area:      swap.NewArea(slots),
		shadows:   mem.NewArena[shadowEntry](table.Pages(), 1024),
		versions:  mem.NewArena[uint32](table.Pages(), 1024),
		faultsAt:  mem.NewArena[uint32](table.Pages(), 1024),
		slotOwner: mem.NewArena[int64](slots, 1024),
		faultLat:  stats.NewLatencyRecorder(1024),
	}
	m.slotOwner.SetDefault(-1)
	m.evicts.Step = m.EvictStep
	for w := cfg.ReadaheadWindow; w > 1; w >>= 1 {
		m.raMaxShift++
	}
	m.raShift = make([]int8, table.Regions())
	m.raHits = make([]int16, table.Regions())
	m.raOutcomes = make([]int16, table.Regions())
	for i := range m.raShift {
		m.raShift[i] = m.raMaxShift
	}
	m.rm = rmap.New(memry, cfg.RMapCost, rng.Stream(0x7b))
	pol.Attach(m)
	if cfg.Audit {
		m.audit = check.NewAuditor(eng, memry, table, pol)
		if cfg.AuditEvery > 0 {
			m.audit.Every = cfg.AuditEvery
		}
		m.audit.WatchLists()
		m.audit.AddInvariant(m.auditSwapOwnership)
		// Policies carrying their own redundant verification state (the
		// MG-LRU region tracker) join the auditor's full scan.
		if ci, ok := pol.(interface{ CheckInvariants() error }); ok {
			m.audit.AddInvariant(ci.CheckInvariants)
		}
	}
	eng.Spawn("kswapd", true, m.kswapd)
	eng.Spawn("aging", true, m.runAging)
	return m
}

// SetAgingDaemon runs body as the aging proc instead of the manager's
// own daemon; requested is the flag RequestAging sets. Call it after New
// and before the engine runs. Differential tests use it to hold the
// daemon to a reference.
func (m *Manager) SetAgingDaemon(body func(v *sim.Env, requested *bool)) { m.agingRef = body }

// runAging is the aging proc's body.
func (m *Manager) runAging(v *sim.Env) {
	if m.agingRef != nil {
		m.agingRef(v, &m.agingReq)
		return
	}
	m.agingDaemon(v)
}

// --- policy.Kernel implementation ---

// Mem implements policy.Kernel.
func (m *Manager) Mem() *mem.Memory { return m.memry }

// Table implements policy.Kernel.
func (m *Manager) Table() *pagetable.Table { return m.table }

// RMap implements policy.Kernel.
func (m *Manager) RMap() *rmap.Map { return m.rm }

// Rand implements policy.Kernel.
func (m *Manager) Rand() *sim.RNG { return m.rng }

// RequestAging implements policy.Kernel.
func (m *Manager) RequestAging() { m.agingReq = true }

// EvictPage implements policy.Kernel: unmap, write back if the swap copy
// is stale, free the frame. Clean pages with a valid swap copy are
// dropped without I/O. It runs the eviction of EvictStep, continuing it
// inline (sim.Env.Suspend) if it parks.
func (m *Manager) EvictPage(v *sim.Env, f mem.FrameID, sh policy.Shadow) {
	c := m.evicts.Get()
	c.W.F, c.W.Shadow, c.W.At = f, sh, 0
	if m.EvictStep(v, &c.W) {
		m.evicts.Suspend(v, c)
	}
	m.evicts.Put(c)
}

// The points of an eviction, in policy.EvictWalk.At.
const (
	evictStart   = iota // unmap the page and start its write, if any
	evictSwapOut        // the swap device's write is in flight
	evictPageOut        // the page cache's write is in flight
	evictFree           // free the frame
)

// EvictStep implements policy.Kernel: EvictPage as a resumable eviction.
func (m *Manager) EvictStep(v *sim.Env, w *policy.EvictWalk) (parked bool) {
	for {
		switch w.At {
		case evictStart:
			fr := m.memry.Frame(w.F)
			vpn := pagetable.VPN(fr.VPN)
			w.At = evictFree
			if m.fc != nil && fr.Flags&mem.FlagFile != 0 {
				if m.unmapFilePage(v, fr, vpn, w.Shadow) {
					w.At = evictPageOut
					w.Write = m.fc.BeginPageOut(vpn)
				}
				continue
			}
			if slot, write := m.unmapPage(v, fr, vpn, w.Shadow); write {
				w.At = evictSwapOut
				w.Write = swap.WriteWalk{Slot: slot, VPN: int64(vpn), Version: m.versions.Peek(int(vpn))}
			}
		case evictSwapOut:
			if m.dev.WriteStep(v, &w.Write) {
				return true
			}
			mustIO(w.Write.Err)
			w.At = evictFree
		case evictPageOut:
			if m.fc.PageOutStep(v, &w.Write) {
				return true
			}
			w.At = evictFree
		case evictFree:
			m.memry.Frame(w.F).VPN = -1
			m.memry.Free(w.F)
			return false
		}
	}
}

// unmapPage is the swap branch of an eviction up to its write: it
// assigns vpn a swap slot at its first eviction, unmaps it and records
// sh. It reports the slot and whether the page must be written, because
// it is dirty or has no swap copy yet.
func (m *Manager) unmapPage(v *sim.Env, fr *mem.Frame, vpn pagetable.VPN, sh policy.Shadow) (swap.Slot, bool) {
	slot := m.table.SwapOf(vpn)
	firstEvict := slot == pagetable.NilSwap
	if firstEvict {
		slot = m.area.Alloc()
		for slot == swap.NilSlot {
			// Swap exhausted: reap the highest-badness victim's slots and
			// retry, the way the kernel OOM-kills when swap is full.
			m.oomKill(v, vpn)
			slot = m.area.Alloc()
		}
		// Slot adjacency is frozen at first eviction: pages evicted
		// together become a readahead cluster for the rest of the run.
		*m.slotOwner.At(int(slot)) = int64(vpn)
	}
	if fr.Flags&mem.FlagPrefetch != 0 {
		// Speculation miss: evicted without ever being touched.
		m.counters.ReadaheadWaste++
		m.raOutcome(vpn, false)
	}
	dirty := m.table.Evict(vpn, slot)
	*m.shadows.At(int(vpn)) = shadowEntry{sh: sh, valid: true}
	if m.audit != nil {
		// Checkpoint before the device write: the write yields, and the
		// page may legitimately refault during it.
		m.audit.Evicted(v, vpn)
	}
	if !dirty && !firstEvict {
		return slot, false
	}
	if dirty {
		*m.versions.At(int(vpn))++
	}
	m.counters.SwapOuts++
	return slot, true
}

// mustIO fails the trial on a swap-device error. The swap path has no
// degraded mode: a read or write the device could not complete (a
// *fault.HardError) panics, the engine turns the panic into the trial
// error, and the experiment harness classifies it as retryable.
func mustIO(err error) {
	if err != nil {
		panic(err)
	}
}

// unmapFilePage is the page-cache branch of an eviction up to its write.
// No swap slot is ever allocated — the backing location is the page's
// fixed file offset — and it reports that the page must be written only
// when it is still dirty under the PTE or the cache's bitmap (the
// flusher may already have cleaned both).
func (m *Manager) unmapFilePage(v *sim.Env, fr *mem.Frame, vpn pagetable.VPN, sh policy.Shadow) bool {
	if fr.Flags&mem.FlagPrefetch != 0 {
		// Speculation miss: evicted without ever being touched.
		m.counters.ReadaheadWaste++
		m.raOutcome(vpn, false)
	}
	dirty := m.table.Evict(vpn, pagetable.NilSwap)
	if m.fc.ClearDirty(vpn) {
		dirty = true
	}
	m.fc.RecordEviction(vpn, sh)
	if m.audit != nil {
		// Checkpoint before the device write: the write yields, and the
		// page may legitimately refault during it.
		m.audit.EvictedFile(v, vpn)
	}
	if dirty {
		m.counters.FileWritebacks++
	}
	return dirty
}

// --- fault path ---

// TryTouch performs the hot-path hardware access: if vpn is resident it
// sets the accessed (and dirty) bits and returns true with zero engine
// interaction. The caller accounts its own compute cost.
func (m *Manager) TryTouch(vpn pagetable.VPN, write bool) bool {
	m.counters.Accesses++
	f, ok := m.table.Walk(vpn, write)
	if ok {
		fr := m.memry.Frame(f)
		if fr.Flags&mem.FlagPrefetch != 0 {
			fr.Flags &^= mem.FlagPrefetch
			m.counters.ReadaheadHits++
			m.raOutcome(vpn, true)
		}
		if fr.Flags&mem.FlagFile != 0 {
			m.counters.FileAccesses++
			if m.fc != nil && write {
				if m.fc.NeedsWriteThrottle(vpn) {
					// Dirtying one more page must stall at the hard dirty
					// wall: fail the fast path so Fault's present branch
					// throttles, then completes the write. With the hard
					// ratio unset this check is one branch and never fires.
					return false
				}
				// Resident write to a file page: the cache tracks dirtiness
				// for the flusher (the PTE D bit alone is invisible to it).
				m.fc.MarkDirty(vpn)
			}
		}
	}
	return ok
}

// raOutcome feeds the adaptive readahead controller for vpn's region:
// sustained misses shrink its window toward zero, sustained hits grow it
// back.
func (m *Manager) raOutcome(vpn pagetable.VPN, hit bool) {
	r := m.table.RegionOf(vpn)
	if hit {
		m.raHits[r]++
	}
	m.raOutcomes[r]++
	if m.raOutcomes[r] < 32 {
		return
	}
	rate := float64(m.raHits[r]) / float64(m.raOutcomes[r])
	switch {
	case rate > 0.6 && m.raShift[r] < m.raMaxShift:
		m.raShift[r]++
	case rate < 0.3 && m.raShift[r] > 0:
		m.raShift[r]--
	}
	m.raHits[r], m.raOutcomes[r] = 0, 0
}

// Fault services a non-present access to vpn: it finds a frame (reclaiming
// if needed), reads the page from swap when one exists, installs the PTE,
// and informs the policy. Blocks the calling proc for the full service
// time.
func (m *Manager) Fault(v *sim.Env, vpn pagetable.VPN, write bool) {
	if m.table.IsPresent(vpn) {
		if m.fc != nil && write && m.table.FileBacked(vpn) && m.fc.NeedsWriteThrottle(vpn) {
			// TryTouch refused the fast path: this write would dirty one
			// more page past the hard dirty wall. Stall, then complete the
			// write if the page survived the throttle; if reclaim evicted
			// it meanwhile, fall through to a fresh file fault.
			m.throttleWrite(v, vpn)
			if m.table.IsPresent(vpn) {
				if _, ok := m.table.Walk(vpn, true); ok {
					m.fc.MarkDirty(vpn)
				}
				return
			}
		} else {
			return // raced with another thread's fault-in
		}
	}
	if m.fc != nil && m.table.FileBacked(vpn) {
		m.fileFault(v, vpn, write)
		return
	}
	major := m.table.SwapOf(vpn) != pagetable.NilSwap
	if major {
		start := v.Now()
		defer func() { m.faultLat.Record(int64(v.Now() - start)) }()
		if m.tr != nil {
			// One track per faulting proc; the span covers the full service
			// time including readahead.
			sp := m.tr.Begin(m.tr.Track(v.Proc().Name()), "major-fault")
			defer sp.EndArg(int64(vpn))
		}
	}

	f := m.ensureFrame(v)

	if major {
		m.counters.MajorFaults++
		m.counters.SwapIns++
		*m.faultsAt.At(int(vpn))++
		v.Charge(m.cfg.MajorFaultOverhead)
		// Re-read the slot at issue time: the historical long-lived PTE
		// pointer observed concurrent OOM reaping here, and so must we.
		mustIO(m.dev.ReadPage(v, m.table.SwapOf(vpn), int64(vpn), m.versions.Peek(int(vpn))))
	} else {
		m.counters.MinorFaults++
		v.Charge(m.cfg.MinorFaultOverhead)
	}

	if m.table.IsPresent(vpn) {
		// Another thread faulted the page in while we were blocked on
		// the device read; release our frame.
		m.memry.Free(f)
		return
	}

	m.table.Insert(vpn, f, write)
	fr := m.memry.Frame(f)
	fr.VPN = int64(vpn)
	if m.table.FileBacked(vpn) {
		fr.Flags |= mem.FlagFile
	}
	var sh *policy.Shadow
	if m.shadows.Peek(int(vpn)).valid {
		s := m.shadows.Peek(int(vpn)).sh
		sh = &s
		m.shadows.At(int(vpn)).valid = false
	}
	if m.audit != nil {
		// Checkpoint before PageIn: PageIn charges CPU (a yield point),
		// and concurrent reclaim could evict this page before it returns.
		m.audit.FaultIn(v, vpn, sh != nil)
	}
	m.pol.PageIn(v, f, sh)

	if major {
		m.readahead(v, vpn, m.table.SwapOf(vpn))
	}
}

// readahead pulls the other swapped-out pages of the faulting slot's
// aligned cluster into memory, without setting their accessed bits and
// without triggering reclaim (it only runs while memory is comfortably
// above the low watermark). Whether a cluster holds pages that will be
// wanted together is determined by the slot layout — eviction-order luck
// — which makes readahead effectiveness, and with it the total fault
// count, vary across otherwise identical runs.
func (m *Manager) readahead(v *sim.Env, at pagetable.VPN, slot int32) {
	if slot < 0 {
		// The OOM reaper discarded the anchoring slot while the demand
		// read was in flight; there is no cluster to anchor at.
		return
	}
	w := int32(1) << m.raShift[m.table.RegionOf(at)]
	if w <= 1 || m.cfg.ReadaheadWindow <= 1 {
		return
	}
	base := slot - slot%w
	for s2 := base; s2 < base+w; s2++ {
		if s2 == slot || int(s2) >= m.slotOwner.Len() || s2 < 0 {
			continue
		}
		if m.memry.FreePages() <= m.memry.Low {
			return // never reclaim for speculation
		}
		owner := m.slotOwner.Peek(int(s2))
		if owner < 0 {
			continue
		}
		vpn2 := pagetable.VPN(owner)
		if m.table.IsPresent(vpn2) || m.table.SwapOf(vpn2) != s2 {
			continue
		}
		f := m.memry.Alloc()
		if f == mem.NilFrame {
			return
		}
		m.table.InsertPrefetch(vpn2, f)
		fr := m.memry.Frame(f)
		fr.VPN = owner
		fr.Flags |= mem.FlagPrefetch
		if m.table.FileBacked(vpn2) {
			fr.Flags |= mem.FlagFile
		}
		hadShadow := m.shadows.Peek(int(vpn2)).valid
		if hadShadow {
			m.shadows.At(int(vpn2)).valid = false
		}
		if m.audit != nil {
			// Checkpoint before the device read (a yield point); the
			// prefetch deliberately drops the page's shadow.
			m.audit.PrefetchIn(v, vpn2, hadShadow)
		}
		m.counters.ReadaheadIn++
		mustIO(m.dev.PrefetchPage(v, s2, owner, m.versions.Peek(int(vpn2))))
		m.pol.PageIn(v, f, nil)
	}
}

// fileFault services a non-present access to a file-backed page through
// the page cache: always a major fault — the content comes from the
// backing file, never swap — followed by sequential file readahead. The
// page's shadow entry, if one survives from a prior eviction, feeds the
// policy's refault detection exactly like the anon path.
func (m *Manager) fileFault(v *sim.Env, vpn pagetable.VPN, write bool) {
	if m.fc.Poisoned(vpn) {
		// The page's backing read previously exhausted its retry budget:
		// hwpoison-style, the fault fails fast — a SIGBUS delivery, not a
		// trial abort — without touching the device again.
		m.fc.NotePoisonedFault()
		v.Charge(m.cfg.MinorFaultOverhead)
		return
	}
	start := v.Now()
	defer func() { m.faultLat.Record(int64(v.Now() - start)) }()
	if m.tr != nil {
		sp := m.tr.Begin(m.tr.Track(v.Proc().Name()), "file-fault")
		defer sp.EndArg(int64(vpn))
	}

	f := m.ensureFrame(v)
	m.counters.MajorFaults++
	m.counters.FileFaults++
	*m.faultsAt.At(int(vpn))++
	v.Charge(m.cfg.MajorFaultOverhead)
	if !m.fc.ReadPage(v, vpn) {
		// The demand read exhausted the device's retry budget. The cache
		// has poisoned the page and accounted a FileIOError; this fault
		// fails SIGBUS-fashion — frame released, nothing installed, no
		// readahead anchored — and the trial keeps running. Any surviving
		// shadow entry stays put: the page never came back.
		m.memry.Free(f)
		return
	}

	if m.table.IsPresent(vpn) {
		// Another thread faulted the page in while we were blocked on
		// the device read; release our frame.
		m.memry.Free(f)
		return
	}

	m.table.Insert(vpn, f, write)
	fr := m.memry.Frame(f)
	fr.VPN = int64(vpn)
	fr.Flags |= mem.FlagFile
	if write {
		m.fc.MarkDirty(vpn)
	}
	m.fc.NoteResident(vpn)
	sh := m.fc.TakeShadow(vpn)
	if m.audit != nil {
		// Checkpoint before PageIn: PageIn charges CPU (a yield point),
		// and concurrent reclaim could evict this page before it returns.
		m.audit.FileFaultIn(v, vpn, sh != nil)
	}
	m.pol.PageIn(v, f, sh)

	if write && m.fc.OverHardLimit() {
		// This write pushed the dirty set to the hard wall; stall the
		// writer (balance_dirty_pages runs after the dirtying write).
		m.throttleWrite(v, vpn)
	}

	m.fileReadahead(v, vpn)
}

// throttleWrite stalls a writer at the hard dirty limit (vm.dirty_ratio)
// until the flusher drains the dirty set, with a span on the proc's own
// track so throttle stalls are attributable in traces.
func (m *Manager) throttleWrite(v *sim.Env, vpn pagetable.VPN) {
	if m.tr != nil {
		sp := m.tr.Begin(m.tr.Track(v.Proc().Name()), "dirty-throttle")
		defer sp.EndArg(int64(vpn))
	}
	m.fc.ThrottleWriter(v)
}

// fileReadahead pulls the pages sequentially ahead of the fault within
// the same file span into memory. Unlike swap readahead there is no slot
// layout to gamble on — file adjacency is device adjacency by
// construction — so the window is purely sequential, governed by the
// same per-region adaptive shift as swap readahead: streaming reads keep
// wide windows, random object access collapses to demand paging.
func (m *Manager) fileReadahead(v *sim.Env, at pagetable.VPN) {
	w := pagetable.VPN(1) << m.raShift[m.table.RegionOf(at)]
	if w <= 1 || m.cfg.ReadaheadWindow <= 1 {
		return
	}
	pages := pagetable.VPN(m.table.Pages())
	for vpn2 := at + 1; vpn2 <= at+w && vpn2 < pages; vpn2++ {
		if !m.table.FileBacked(vpn2) {
			return // ran off the end of the file span
		}
		if m.memry.FreePages() <= m.memry.Low {
			return // never reclaim for speculation
		}
		if m.table.IsPresent(vpn2) {
			continue
		}
		if m.fc.Poisoned(vpn2) {
			// Never speculate into a poisoned page; its read would just
			// fail again.
			continue
		}
		f := m.memry.Alloc()
		if f == mem.NilFrame {
			return
		}
		m.table.InsertPrefetch(vpn2, f)
		fr := m.memry.Frame(f)
		fr.VPN = int64(vpn2)
		fr.Flags |= mem.FlagPrefetch | mem.FlagFile
		// The prefetch deliberately drops the page's shadow without
		// counting a refault: speculation is not eviction-was-premature
		// evidence.
		hadShadow := m.fc.DropShadow(vpn2)
		m.fc.NoteResident(vpn2)
		if m.audit != nil {
			// Checkpoint after NoteResident (the auditor reconciles the
			// cache's resident count) but before the device read (a
			// yield point).
			m.audit.FilePrefetchIn(v, vpn2, hadShadow)
		}
		m.counters.ReadaheadIn++
		if !m.fc.PrefetchPage(v, vpn2) {
			// The speculative read failed. Speculative I/O never fails
			// anything: if the page is still an untouched prefetch, tear
			// it back out as though the readahead had never happened and
			// stop the cluster there. Reclaim cannot have evicted it —
			// the policy only learns about the page at PageIn — but a
			// thread may have touched it mid-read (clearing FlagPrefetch);
			// that demand access absorbs the error and the page stays.
			if fr.Flags&mem.FlagPrefetch != 0 {
				m.table.Evict(vpn2, pagetable.NilSwap)
				m.counters.ReadaheadIn--
				m.fc.AbandonResident(vpn2)
				if m.audit != nil {
					m.audit.FilePrefetchAbandoned(v, vpn2)
				}
				fr.VPN = -1
				m.memry.Free(f)
				return
			}
		}
		m.pol.PageIn(v, f, nil)
	}
}

// Touch is TryTouch+Fault in one call, for callers that don't batch.
func (m *Manager) Touch(v *sim.Env, vpn pagetable.VPN, write bool) (faulted bool) {
	if m.TryTouch(vpn, write) {
		return false
	}
	m.Fault(v, vpn, write)
	return true
}

// ensureFrame allocates a frame, entering direct reclaim when memory is
// exhausted and waking kswapd when the low watermark is crossed.
func (m *Manager) ensureFrame(v *sim.Env) mem.FrameID {
	for attempt := 0; ; attempt++ {
		if f := m.memry.Alloc(); f != mem.NilFrame {
			if m.memry.BelowLow() {
				m.kswapdCond.Broadcast(v.Engine())
			}
			return f
		}
		// Allocation failed: direct reclaim on the faulting thread.
		m.counters.DirectReclaims++
		m.kswapdCond.Broadcast(v.Engine())
		var sp telemetry.Span
		if m.tr != nil {
			sp = m.tr.Begin(m.tr.Track(v.Proc().Name()), "direct-reclaim")
		}
		n := m.pol.Reclaim(v, m.cfg.ReclaimBatch)
		sp.EndArg(int64(n))
		if n == 0 {
			// No progress — let kswapd/aging run and retry.
			if attempt > 10000 {
				panic(fmt.Sprintf("vmm: reclaim livelock at %v (free=%d)", v.Now(), m.memry.FreePages()))
			}
			v.Sleep(100 * sim.Microsecond)
		}
	}
}

// --- background daemons ---

// kswapd reclaims from the low watermark up to the high watermark.
func (m *Manager) kswapd(v *sim.Env) {
	for {
		v.WaitFor(&m.kswapdCond, m.memry.BelowLow)
		m.counters.KswapdBursts++
		var sp telemetry.Span
		if m.tr != nil {
			// The low-watermark crossing that woke the burst, then the burst
			// itself with total pages reclaimed as its argument.
			m.tr.Instant(m.trKswapd, "watermark-low", int64(m.memry.FreePages()))
			sp = m.tr.Begin(m.trKswapd, "kswapd-burst")
		}
		var reclaimed int64
		for m.memry.BelowHigh() {
			n := m.pol.Reclaim(v, m.cfg.KswapdBatch)
			reclaimed += int64(n)
			if n == 0 {
				// No progress; back off so the system can move.
				v.Sleep(200 * sim.Microsecond)
				if !m.memry.BelowLow() {
					break
				}
			}
		}
		sp.EndArg(reclaimed)
	}
}

// agingDaemon runs the policy's background aging: on request, when the
// policy reports need, and proactively on a period. This is the separate
// scanning thread whose CPU contention the paper identifies as an MG-LRU
// variance source (§VI-A); for Clock there is no pass to run and the
// daemon just idles.
//
// The daemon runs suspended (sim.Env.Suspend): every wakeup continues
// its step inline, on whichever stack dispatches it, and its coroutine
// is only ever resumed to unwind at shutdown.
func (m *Manager) agingDaemon(v *sim.Env) {
	a := &ager{m: m, v: v, lastProactive: v.Now()}
	a.step() // parks: the step never needs the coroutine
	v.Suspend(a.step)
}

// agerAt is where the aging daemon goes on after a park.
type agerAt uint8

const (
	agerCheck   agerAt = iota // decide whether a pass is due, or sleep
	agerAge                   // the pass is walking
	agerYielded               // the pass is over and the daemon has yielded
)

// ager is the aging daemon's state between steps.
type ager struct {
	m             *Manager
	v             *sim.Env
	at            agerAt
	walk          policy.AgeWalk
	lastProactive sim.Time
	proactiveDue  bool
	sp            telemetry.Span
}

// step runs the daemon until it parks. It always parks, so it always
// reports true.
func (a *ager) step() bool {
	m, v := a.m, a.v
	for {
		switch a.at {
		case agerCheck:
			a.proactiveDue = m.cfg.ProactiveInterval > 0 &&
				v.Now()-a.lastProactive >= sim.Time(m.cfg.ProactiveInterval)
			if !m.agingReq && !m.pol.NeedsAging() && !a.proactiveDue {
				if !v.TrySleepUntil(v.Now() + sim.Time(m.cfg.AgingPoll)) {
					return true
				}
				continue
			}
			m.agingReq = false
			if a.proactiveDue {
				a.lastProactive = v.Now()
			}
			if m.tr != nil {
				a.sp = m.tr.Begin(m.trAging, "aging-pass")
			}
			a.walk = policy.AgeWalk{}
			a.at = agerAge
		case agerAge:
			if m.pol.AgeStep(v, &a.walk) {
				return true
			}
			workedArg := int64(0)
			if a.walk.Worked {
				workedArg = 1
			}
			a.sp.EndArg(workedArg)
			if m.audit != nil {
				m.audit.AgingPass(v)
			}
			// Yield before a possible back-to-back walk, so procs woken
			// by this walk's completion get to observe it; otherwise a
			// daemon whose walks take longer than the proactive interval
			// starves every waiter.
			a.at = agerYielded
			v.TryYield()
			return true
		case agerYielded:
			a.at = agerCheck
			if !a.walk.Worked && !a.proactiveDue {
				// Policy has no aging work (e.g. Clock): idle longer.
				if !v.TrySleepUntil(v.Now() + sim.Time(10*m.cfg.AgingPoll)) {
					return true
				}
			}
		}
	}
}

// auditSwapOwnership cross-checks the slot-ownership table against the
// PTEs: every assigned swap slot must be owned by the page whose PTE
// points at it, and vice versa. Registered with the auditor's full scan.
func (m *Manager) auditSwapOwnership() error {
	pages := m.table.Pages()
	for i := 0; i < pages; i++ {
		vpn := pagetable.VPN(i)
		slot := m.table.SwapOf(vpn)
		if slot == pagetable.NilSwap {
			continue
		}
		if int(slot) < 0 || int(slot) >= m.slotOwner.Len() {
			return fmt.Errorf("vpn %d holds out-of-range swap slot %d", vpn, slot)
		}
		if owner := m.slotOwner.Peek(int(slot)); owner != int64(vpn) {
			return fmt.Errorf("vpn %d holds swap slot %d but the slot is owned by vpn %d", vpn, slot, owner)
		}
	}
	// Area-level cross-check: a slot is allocated in the area exactly when
	// the ownership table assigns it. Divergence means a slot was freed
	// while still owned (use after free) or leaked after its owner let go.
	for s := 0; s < m.area.Capacity(); s++ {
		held := m.slotOwner.Peek(s) >= 0
		if alloc := m.area.Allocated(swap.Slot(s)); alloc != held {
			return fmt.Errorf("swap slot %d: area allocated=%v but ownership table says owned=%v", s, alloc, held)
		}
	}
	return nil
}

// --- accessors ---

// Auditor exposes the invariant auditor, or nil when auditing is off.
func (m *Manager) Auditor() *check.Auditor { return m.audit }

// AttachFileCache wires the page cache into the fault and eviction
// paths: file-backed pages then read through and write back to the
// cache's own device instead of swap. Call after New and before the
// engine runs. Without a cache (the default) file-backed PTEs swap like
// anon memory and the only added cost is a nil check per fault,
// eviction, and resident write.
func (m *Manager) AttachFileCache(fc *pagecache.Cache) {
	m.fc = fc
	if m.audit != nil {
		m.audit.SetFileCache(fc)
	}
}

// SetTracer attaches the telemetry tracer and registers the manager's
// gauges. Call after New and before the engine runs: the daemons read the
// field only at instrumented sites, so late binding is safe, but gauges
// must be registered before the first sample. A nil tracer (the default)
// keeps every instrumented site on the single-nil-check fast path.
func (m *Manager) SetTracer(tr *telemetry.Tracer) {
	m.tr = tr
	if tr == nil {
		return
	}
	m.trKswapd = tr.Track("kswapd")
	m.trAging = tr.Track("aging")
	tr.Gauge("vmm.resident_pages", func() int64 { return int64(m.table.PresentPages()) })
	tr.Gauge("vmm.free_pages", func() int64 { return int64(m.memry.FreePages()) })
	tr.Gauge("vmm.swap_in_use", func() int64 { return int64(m.area.InUse()) })
	tr.Gauge("vmm.major_faults", func() int64 { return int64(m.counters.MajorFaults) })
	tr.Gauge("vmm.minor_faults", func() int64 { return int64(m.counters.MinorFaults) })
	tr.Gauge("vmm.swap_ins", func() int64 { return int64(m.counters.SwapIns) })
	tr.Gauge("vmm.swap_outs", func() int64 { return int64(m.counters.SwapOuts) })
	tr.Gauge("vmm.direct_reclaims", func() int64 { return int64(m.counters.DirectReclaims) })
	tr.Gauge("vmm.kswapd_bursts", func() int64 { return int64(m.counters.KswapdBursts) })
	tr.Gauge("vmm.readahead_in", func() int64 { return int64(m.counters.ReadaheadIn) })
	tr.Gauge("vmm.file_faults", func() int64 { return int64(m.counters.FileFaults) })
	tr.Gauge("vmm.file_writebacks", func() int64 { return int64(m.counters.FileWritebacks) })
	tr.Gauge("vmm.oom_kills", func() int64 { return int64(m.counters.OOMKills) })
	if m.audit != nil {
		// Auditor→telemetry hook: each invariant violation lands in the
		// flight ring as an instant and in the dump's notes as the full
		// diff, so flight.txt carries the breached invariant even when the
		// trial dies before the AuditErr error path runs.
		trAudit := tr.Track("audit")
		m.audit.SetReporter(func(v check.Violation) {
			tr.Instant(trAudit, "audit-violation", int64(v.At))
			tr.Note("invariant: " + v.String())
		})
	}
}

// Tracer exposes the attached telemetry tracer (nil when tracing is off),
// so downstream instrumentation can share the trial's sink.
func (m *Manager) Tracer() *telemetry.Tracer { return m.tr }

// AuditErr finalizes the auditor (a last full-state scan) and returns nil
// when no invariant was breached. Call once when the trial ends; returns
// nil when auditing is off.
func (m *Manager) AuditErr() error {
	if m.audit == nil {
		return nil
	}
	m.audit.Final(m.eng.Now())
	return m.audit.Err()
}

// Counters returns fault-path counters.
func (m *Manager) Counters() Counters { return m.counters }

// FaultLatencies exposes the major-fault service-time recorder: the
// paper-style fault-latency CDF of the trial. Valid after the trial ends.
func (m *Manager) FaultLatencies() *stats.LatencyRecorder { return m.faultLat }

// PolicyStats returns the attached policy's counters.
func (m *Manager) PolicyStats() policy.Stats { return m.pol.Stats() }

// DeviceStats returns the swap device's counters.
func (m *Manager) DeviceStats() swap.Stats { return m.dev.Stats() }

// Policy exposes the attached policy (for visualization tools).
func (m *Manager) Policy() policy.Policy { return m.pol }

// SwapInUse reports allocated swap slots.
func (m *Manager) SwapInUse() int { return m.area.InUse() }

// MajorFaultsAt reports the number of major faults taken on vpn; analysis
// tools use it to attribute faults to address-space segments.
func (m *Manager) MajorFaultsAt(vpn pagetable.VPN) uint64 { return uint64(m.faultsAt.Peek(int(vpn))) }

// ResidentPages reports pages currently in memory.
func (m *Manager) ResidentPages() int { return m.table.PresentPages() }
