// Package pagecache models file-backed memory as a first-class citizen
// beside anonymous memory: per-file address-space mappings over the
// shared page table, read/write-through against a backing block device
// on fault, dirty tracking with clustered writeback by a virtual-time
// flusher daemon, and shadow-entry refault tracking on eviction.
//
// The model follows the Linux page cache (and the page-cache simulation
// literature the ROADMAP cites): a file page's backing location is fixed
// — its offset within the file — so pages that are adjacent in a file
// are adjacent on the device, and the flusher can batch dirty runs into
// contiguous extents the way the kernel clusters writeback. Contrast
// the anonymous path in internal/vmm, where a page's swap slot is
// assigned at first eviction and adjacency is eviction-order luck.
//
// The backing device is a plain swap.Device. When one of its I/O
// methods returns an error (a fault-plane wrapper whose retry budget is
// exhausted), the cache degrades the way the kernel does instead of
// failing the trial: a failed demand read poisons the page, a failed
// prefetch is abandoned, and a failed writeback lands in the file's
// errseq-style ledger.
//
// The cache never owns frames or PTEs; internal/vmm remains the only
// writer of both. It owns what the kernel's address_space owns: the
// file-offset mapping, the dirty set, the writeback schedule, and the
// shadow entries left behind by evicted file pages.
package pagecache

import (
	"fmt"
	"math/bits"
	"sort"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
)

// Config tunes the page-cache model. It contains only plain values so it
// can sit inside core.SystemConfig and enter checkpoint fingerprints.
type Config struct {
	// Enabled turns the page-cache mode on: core constructs a backing
	// device and a Cache, and the vmm routes file-backed faults and
	// evictions through it. Off (the zero value), file-backed pages fall
	// back to the historical behaviour of swapping like anonymous ones,
	// and no flusher daemon is spawned — existing figures are
	// byte-identical.
	Enabled bool
	// Backing parameterizes the file backing store (an SSD model; reads
	// block, writes are asynchronous with writeback backpressure).
	Backing swap.SSDConfig
	// DirtyRatio is the fraction of physical memory that may be dirty
	// file pages before the flusher starts a writeback pass ahead of its
	// periodic schedule — the analogue of vm.dirty_background_ratio.
	DirtyRatio float64
	// FlushInterval is the periodic writeback cadence: dirty pages older
	// than roughly one interval are written back even below the ratio
	// threshold (vm.dirty_writeback_centisecs).
	FlushInterval sim.Duration
	// MaxExtent caps how many pages one clustered write extent may span.
	MaxExtent int
	// DirtyHardRatio is the fraction of physical memory at which writers
	// dirtying new file pages are throttled until the flusher catches up
	// — the analogue of vm.dirty_ratio. Zero (the default) disables hard
	// throttling entirely, keeping historical behaviour byte-identical;
	// when set it is clamped above DirtyRatio so the background flusher
	// always engages first.
	DirtyHardRatio float64
}

// DefaultConfig returns the enabled page-cache profile with calibrated
// defaults. Hard dirty throttling stays off so existing figures are
// unchanged; DegradedConfig turns it on.
func DefaultConfig() Config {
	return Config{
		Enabled:       true,
		Backing:       swap.DefaultSSDConfig(),
		DirtyRatio:    0.10,
		FlushInterval: 100 * sim.Millisecond,
		MaxExtent:     16,
	}
}

// DegradedConfig is DefaultConfig plus the hard dirty throttle — the
// profile for running against a faulted file backing device, where a
// stalled or erroring device lets dirty pages pile up unboundedly
// without vm.dirty_ratio-style backpressure.
func DegradedConfig() Config {
	cfg := DefaultConfig()
	cfg.DirtyHardRatio = 0.20
	return cfg
}

func (c Config) withDefaults() Config {
	if c.DirtyRatio <= 0 {
		c.DirtyRatio = 0.10
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * sim.Millisecond
	}
	if c.MaxExtent <= 0 {
		c.MaxExtent = 16
	}
	return c
}

// FileSpan names one file's mapping in the virtual address space.
type FileSpan struct {
	Name  string
	Base  pagetable.VPN
	Pages int
}

// Stats aggregates cache activity for a trial. Plain counters, so the
// struct can ride inside core.Metrics.
type Stats struct {
	// Reads counts demand reads from the backing file (file major
	// faults); ReadaheadReads counts speculative cluster reads.
	Reads, ReadaheadReads uint64
	// Dirtied counts clean→dirty transitions of cached pages.
	Dirtied uint64
	// FlushPasses, Extents, WritebackPages describe flusher activity:
	// passes run, contiguous extents issued, pages written back.
	FlushPasses, Extents, WritebackPages uint64
	// PageOuts counts dirty pages written back synchronously at
	// eviction (reclaim beat the flusher to them).
	PageOuts uint64
	// Evictions and Refaults are the shadow-entry ledger: file pages
	// evicted, and faults that found a shadow entry (the page came back
	// after eviction — the signal the pidctl balancer feeds on).
	Evictions, Refaults uint64
	// FileIOErrors counts demand reads that exhausted the device's retry
	// budget: the page is poisoned in the mapping and the fault fails
	// SIGBUS-style instead of aborting the trial.
	FileIOErrors uint64
	// PoisonedFaults counts later faults on already-poisoned pages — fast
	// SIGBUS deliveries that touch no I/O.
	PoisonedFaults uint64
	// ReadaheadAborts counts speculative reads abandoned on injected
	// error (the installed-but-unread page is torn back out; nothing
	// fails).
	ReadaheadAborts uint64
	// WriteErrors counts writeback writes that exhausted their retry
	// budget; each bumps the owning file's errseq-style ledger.
	WriteErrors uint64
	// DataAtRisk counts pages whose latest dirty data never reached the
	// backing device (the kernel's "lost writeback" — what fsync would
	// report via errseq_t).
	DataAtRisk uint64
	// ThrottleStalls and ThrottleStallTime account the hard dirty
	// throttle: writers stalled at the vm.dirty_ratio analogue, and the
	// total virtual time they lost.
	ThrottleStalls    uint64
	ThrottleStallTime sim.Duration
}

// WrittenBack is the total writeback volume in pages, however the write
// was scheduled.
func (s Stats) WrittenBack() uint64 { return s.WritebackPages + s.PageOuts }

// Add accumulates other into s (series-level aggregation). Every field of
// Stats must appear here; a reflection test enforces completeness.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.ReadaheadReads += other.ReadaheadReads
	s.Dirtied += other.Dirtied
	s.FlushPasses += other.FlushPasses
	s.Extents += other.Extents
	s.WritebackPages += other.WritebackPages
	s.PageOuts += other.PageOuts
	s.Evictions += other.Evictions
	s.Refaults += other.Refaults
	s.FileIOErrors += other.FileIOErrors
	s.PoisonedFaults += other.PoisonedFaults
	s.ReadaheadAborts += other.ReadaheadAborts
	s.WriteErrors += other.WriteErrors
	s.DataAtRisk += other.DataAtRisk
	s.ThrottleStalls += other.ThrottleStalls
	s.ThrottleStallTime += other.ThrottleStallTime
}

// FlusherError classifies a panic that unwound the flusher daemon: the
// trial fails with writeback context (how much was dirty) instead of a
// bare panic string, and the experiment harness can unwrap the cause for
// retry classification.
type FlusherError struct {
	Cause      error
	DirtyPages int
}

// Error implements error.
func (e *FlusherError) Error() string {
	return fmt.Sprintf("pagecache: flusher failed with %d pages dirty: %v", e.DirtyPages, e.Cause)
}

// Unwrap exposes the cause to errors.As/Is.
func (e *FlusherError) Unwrap() error { return e.Cause }

// FileErrors is one file's errseq_t-style writeback-error ledger: how
// many writeback failures the file has seen (what fsync would observe as
// an errseq advance) and how many pages' latest data never persisted.
type FileErrors struct {
	Name       string
	ErrSeq     uint64
	DataAtRisk uint64
}

type shadowEntry struct {
	sh    policy.Shadow
	valid bool
}

type mapping struct {
	FileSpan
	slotBase swap.Slot
}

// Cache is the page cache over one trial's file mappings.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	table *pagetable.Table
	memry *mem.Memory
	dev   swap.Device

	// files is sorted by Base; backing slots are assigned in the same
	// order, so slot order equals VPN order and both directions of the
	// translation binary-search the same slice.
	files      []mapping
	totalPages int

	// dirty is a bitmap over dense backing slots; dirtyCount mirrors the
	// set-bit population for the ratio trigger.
	dirty      []uint64
	dirtyCount int
	threshold  int
	// hardThreshold is the writer-throttle point (vm.dirty_ratio); zero
	// means throttling is off.
	hardThreshold int

	// poisoned marks slots whose demand read exhausted its retry budget:
	// hwpoison-style, later faults fail fast without touching the device.
	poisoned      []uint64
	poisonedCount int

	// fileErrs parallels files: the per-file errseq ledgers.
	fileErrs []FileErrors

	// shadows is indexed by backing slot (dense over file pages, unlike
	// the vmm's per-VPN arena over the whole VA span).
	shadows    *mem.Arena[shadowEntry]
	shadowLive int

	resident int

	stats Stats

	// extents is flushPass's extent list, reused across passes.
	extents []extent

	tr      *telemetry.Tracer
	trTrack telemetry.TrackID // the cache's own degradation-event lane
}

// extent is a run of dirty backing slots one flush pass writes back.
type extent struct {
	start swap.Slot
	n     int
}

// New builds a Cache over the given file spans and spawns its flusher
// daemon on eng when the config enables it. The spans must not overlap;
// their backing slots are assigned in VPN order.
func New(cfg Config, eng *sim.Engine, table *pagetable.Table, memry *mem.Memory,
	dev swap.Device, files []FileSpan) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, eng: eng, table: table, memry: memry, dev: dev}
	spans := append([]FileSpan(nil), files...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Base < spans[j].Base })
	for i, s := range spans {
		if s.Pages <= 0 {
			panic(fmt.Sprintf("pagecache: file %q has non-positive span %d", s.Name, s.Pages))
		}
		if i > 0 {
			prev := spans[i-1]
			if s.Base < prev.Base+pagetable.VPN(prev.Pages) {
				panic(fmt.Sprintf("pagecache: file %q overlaps %q", s.Name, prev.Name))
			}
		}
		c.files = append(c.files, mapping{FileSpan: s, slotBase: swap.Slot(c.totalPages)})
		c.totalPages += s.Pages
	}
	c.dirty = make([]uint64, (c.totalPages+63)/64)
	c.shadows = mem.NewArena[shadowEntry](c.totalPages, 1024)
	c.threshold = int(cfg.DirtyRatio * float64(memry.Size()))
	if c.threshold < 1 {
		c.threshold = 1
	}
	if cfg.DirtyHardRatio > 0 {
		c.hardThreshold = int(cfg.DirtyHardRatio * float64(memry.Size()))
		// The hard wall must sit above the background trigger or writers
		// would throttle before the flusher even wakes.
		if c.hardThreshold <= c.threshold {
			c.hardThreshold = c.threshold + 1
		}
	}
	c.poisoned = make([]uint64, (c.totalPages+63)/64)
	c.fileErrs = make([]FileErrors, len(c.files))
	for i, f := range c.files {
		c.fileErrs[i].Name = f.Name
	}
	if cfg.Enabled {
		eng.Spawn("flusher", true, c.flusher)
	}
	return c
}

// FilePages reports the total file-backed pages under management.
func (c *Cache) FilePages() int { return c.totalPages }

// SlotOf translates a VPN to its fixed backing slot. The second return
// is false for VPNs outside every registered file span.
func (c *Cache) SlotOf(vpn pagetable.VPN) (swap.Slot, bool) {
	i := sort.Search(len(c.files), func(i int) bool {
		f := c.files[i]
		return vpn < f.Base+pagetable.VPN(f.Pages)
	})
	if i == len(c.files) || vpn < c.files[i].Base {
		return swap.NilSlot, false
	}
	return c.files[i].slotBase + swap.Slot(vpn-c.files[i].Base), true
}

// vpnOf is the inverse translation; slot must be in range.
func (c *Cache) vpnOf(slot swap.Slot) pagetable.VPN {
	f := c.files[c.fileIndexOf(slot)]
	return f.Base + pagetable.VPN(slot-f.slotBase)
}

// fileIndexOf locates the file owning slot; slot must be in range.
func (c *Cache) fileIndexOf(slot swap.Slot) int {
	return sort.Search(len(c.files), func(i int) bool {
		f := c.files[i]
		return slot < f.slotBase+swap.Slot(f.Pages)
	})
}

// --- fault-path service ---

// ReadPage blocks the calling proc for the backing read of vpn — the
// file major-fault service. It reports whether the read succeeded: when
// the device returns an error (a fault-plane wrapper whose retry budget
// is exhausted) the page is poisoned in the mapping (hwpoison-style) and
// the caller must fail the fault SIGBUS-fashion — skip the install, free
// the frame, keep running.
func (c *Cache) ReadPage(v *sim.Env, vpn pagetable.VPN) bool {
	slot := c.mustSlot(vpn)
	c.stats.Reads++
	if err := c.dev.ReadPage(v, slot, int64(vpn), 0); err != nil {
		c.poison(slot)
		c.stats.FileIOErrors++
		if c.tr != nil {
			c.tr.Instant(c.trTrack, "file-io-error", int64(vpn))
		}
		return false
	}
	return true
}

// PrefetchPage reads vpn as part of a readahead cluster anchored at a
// blocking demand read. It reports whether the speculative read
// succeeded; on failure the caller abandons the prefetch — speculative
// I/O never fails anything, matching the kernel, which silently drops
// failed readahead pages.
func (c *Cache) PrefetchPage(v *sim.Env, vpn pagetable.VPN) bool {
	slot := c.mustSlot(vpn)
	c.stats.ReadaheadReads++
	return c.dev.PrefetchPage(v, slot, int64(vpn), 0) == nil
}

func (c *Cache) poison(slot swap.Slot) {
	w, b := int(slot)/64, uint(slot)%64
	if c.poisoned[w]&(1<<b) == 0 {
		c.poisoned[w] |= 1 << b
		c.poisonedCount++
	}
}

// Poisoned reports whether vpn's backing read previously exhausted its
// retry budget. Faults on poisoned pages must fail fast without I/O.
func (c *Cache) Poisoned(vpn pagetable.VPN) bool {
	if c.poisonedCount == 0 {
		return false
	}
	slot, ok := c.SlotOf(vpn)
	if !ok {
		return false
	}
	return c.poisoned[int(slot)/64]&(1<<(uint(slot)%64)) != 0
}

// NotePoisonedFault accounts one fast SIGBUS delivery on an
// already-poisoned page.
func (c *Cache) NotePoisonedFault() { c.stats.PoisonedFaults++ }

// PoisonedPages reports how many distinct pages are poisoned.
func (c *Cache) PoisonedPages() int { return c.poisonedCount }

// NoteResident records that a file page was installed (demand fault or
// readahead).
func (c *Cache) NoteResident(vpn pagetable.VPN) { c.resident++ }

// AbandonResident undoes a NoteResident for a readahead page torn back
// out after its speculative read failed, and accounts the abort.
func (c *Cache) AbandonResident(vpn pagetable.VPN) {
	c.resident--
	c.stats.ReadaheadAborts++
}

// ResidentFilePages reports installed file pages — the auditor's
// conservation cross-check against a full PTE scan.
func (c *Cache) ResidentFilePages() int { return c.resident }

// --- dirty tracking ---

// MarkDirty records a write to a cached page. Idempotent; returns true
// on the clean→dirty transition.
func (c *Cache) MarkDirty(vpn pagetable.VPN) bool {
	slot := c.mustSlot(vpn)
	w, b := int(slot)/64, uint(slot)%64
	if c.dirty[w]&(1<<b) != 0 {
		return false
	}
	c.dirty[w] |= 1 << b
	c.dirtyCount++
	c.stats.Dirtied++
	return true
}

// ClearDirty removes vpn from the dirty set, reporting whether it was
// dirty.
func (c *Cache) ClearDirty(vpn pagetable.VPN) bool {
	slot, ok := c.SlotOf(vpn)
	if !ok {
		return false
	}
	w, b := int(slot)/64, uint(slot)%64
	if c.dirty[w]&(1<<b) == 0 {
		return false
	}
	c.dirty[w] &^= 1 << b
	c.dirtyCount--
	return true
}

// DirtyPages reports the current dirty-set size.
func (c *Cache) DirtyPages() int { return c.dirtyCount }

// DirtyThreshold reports the page count at which the ratio trigger
// starts a flush pass.
func (c *Cache) DirtyThreshold() int { return c.threshold }

// --- hard dirty throttle (vm.dirty_ratio analogue) ---

// HardDirtyThreshold reports the writer-throttle point; zero means hard
// throttling is off.
func (c *Cache) HardDirtyThreshold() int { return c.hardThreshold }

// OverHardLimit reports whether the dirty set has reached the hard
// throttle point.
func (c *Cache) OverHardLimit() bool {
	return c.hardThreshold > 0 && c.dirtyCount >= c.hardThreshold
}

// NeedsWriteThrottle reports whether a write to vpn must stall before it
// may dirty the page. Kernel-faithfully this is page_mkwrite-time
// backpressure: only the clean→dirty transition throttles — repeated
// writes to an already-dirty page add nothing to the dirty set and pass
// freely. With the hard ratio unset this is always false and the fast
// path is untouched.
func (c *Cache) NeedsWriteThrottle(vpn pagetable.VPN) bool {
	if !c.OverHardLimit() {
		return false
	}
	slot, ok := c.SlotOf(vpn)
	if !ok {
		return false
	}
	return c.dirty[int(slot)/64]&(1<<(uint(slot)%64)) == 0
}

// throttleQuantum is the balance_dirty_pages-style pause unit: writers
// sleep in small slices, rechecking the dirty set after each, so they
// resume promptly once a flush pass collects (and thereby cleans) pages.
const throttleQuantum = 500 * sim.Microsecond

// ThrottleWriter stalls the calling proc until the dirty set drops back
// under the hard threshold, accounting the stall. The flusher clears
// dirty bits at collection time (before the device I/O completes), so
// the loop terminates even while the device itself is storm-stalled.
func (c *Cache) ThrottleWriter(v *sim.Env) {
	if !c.OverHardLimit() {
		return
	}
	c.stats.ThrottleStalls++
	start := v.Now()
	for c.OverHardLimit() {
		v.Sleep(throttleQuantum)
	}
	stalled := sim.Duration(v.Now() - start)
	c.stats.ThrottleStallTime += stalled
	if c.tr != nil {
		c.tr.Emit(c.trTrack, "dirty-throttle", start, stalled, int64(c.dirtyCount))
	}
}

// --- eviction and refault ---

// RecordEviction stores the policy shadow for an evicted file page. The
// entry is consumed by the next TakeShadow on the same page; its
// presence there is what classifies that fault as a refault.
func (c *Cache) RecordEviction(vpn pagetable.VPN, sh policy.Shadow) {
	slot := c.mustSlot(vpn)
	e := c.shadows.At(int(slot))
	if !e.valid {
		c.shadowLive++
	}
	*e = shadowEntry{sh: sh, valid: true}
	c.stats.Evictions++
	c.resident--
}

// PageOut writes a dirty page back at eviction time (reclaim reached it
// before the flusher). The write is scheduled on the backing device with
// its usual asynchronous semantics; the calling proc may block on
// writeback backpressure. A write the device fails lands in the file's
// error ledger instead of failing reclaim.
func (c *Cache) PageOut(v *sim.Env, vpn pagetable.VPN) {
	w := c.BeginPageOut(vpn)
	c.writePage(v, w.Slot, w.VPN)
}

// BeginPageOut accounts a page-out of vpn and returns the write that
// PageOutStep runs.
func (c *Cache) BeginPageOut(vpn pagetable.VPN) swap.WriteWalk {
	c.stats.PageOuts++
	return swap.WriteWalk{Slot: c.mustSlot(vpn), VPN: int64(vpn)}
}

// PageOutStep is PageOut's write as a resumable step, for a proc running
// suspended: it runs the device write w (from BeginPageOut) until the
// write parks the proc, and then reports true; the caller calls it again
// with the same w once the proc is continued. It reports false when the
// page-out is over, its error absorbed as writePage absorbs it.
func (c *Cache) PageOutStep(v *sim.Env, w *swap.WriteWalk) (parked bool) {
	if c.dev.WriteStep(v, w) {
		return true
	}
	c.absorb(w.Slot, w.VPN, w.Err)
	return false
}

// writePage issues one writeback write and absorbs its error.
func (c *Cache) writePage(v *sim.Env, slot swap.Slot, vpn int64) {
	c.absorb(slot, vpn, c.dev.WritePage(v, slot, vpn, 0))
}

// absorb takes a writeback write's hard injected error into the owning
// file's errseq_t-style ledger: the error sequence advances and the page
// counts as data-at-risk — its latest bytes never reached the device,
// which is exactly what a later fsync on the file would report. The page
// stays logically clean (its dirty bit was already cleared by the
// caller), matching the kernel, which does not re-dirty pages after
// failed writeback — so the dirty set, and with it the hard throttle,
// still drains on an erroring device.
func (c *Cache) absorb(slot swap.Slot, vpn int64, err error) {
	if err == nil {
		return
	}
	c.stats.WriteErrors++
	c.stats.DataAtRisk++
	fe := &c.fileErrs[c.fileIndexOf(slot)]
	fe.ErrSeq++
	fe.DataAtRisk++
	if c.tr != nil {
		c.tr.Instant(c.trTrack, "writeback-error", vpn)
	}
}

// TakeShadow consumes and returns vpn's shadow entry, or nil if the page
// has never been evicted (or its shadow was already consumed). A hit
// counts as a refault.
func (c *Cache) TakeShadow(vpn pagetable.VPN) *policy.Shadow {
	slot := c.mustSlot(vpn)
	if !c.shadows.Peek(int(slot)).valid {
		return nil
	}
	e := c.shadows.At(int(slot))
	e.valid = false
	c.shadowLive--
	c.stats.Refaults++
	sh := e.sh
	return &sh
}

// DropShadow discards vpn's shadow entry without counting a refault —
// the readahead path: a speculative read-in is not evidence the
// eviction was premature. Reports whether an entry was dropped.
func (c *Cache) DropShadow(vpn pagetable.VPN) bool {
	slot := c.mustSlot(vpn)
	if !c.shadows.Peek(int(slot)).valid {
		return false
	}
	e := c.shadows.At(int(slot))
	e.valid = false
	c.shadowLive--
	return true
}

// HasShadow reports whether vpn currently holds a shadow entry, without
// consuming it (auditor use).
func (c *Cache) HasShadow(vpn pagetable.VPN) bool {
	slot, ok := c.SlotOf(vpn)
	if !ok {
		return false
	}
	return c.shadows.Peek(int(slot)).valid
}

// ShadowCount reports live shadow entries (auditor use).
func (c *Cache) ShadowCount() int { return c.shadowLive }

func (c *Cache) mustSlot(vpn pagetable.VPN) swap.Slot {
	slot, ok := c.SlotOf(vpn)
	if !ok {
		panic(fmt.Sprintf("pagecache: vpn %d is not file-backed under any registered span", vpn))
	}
	return slot
}

// --- writeback ---

// flusher is the daemon entry point: the writeback loop wrapped in the
// same panic→classified-trial-error recovery the other daemons get. A
// bug (or an unabsorbed injected fault) in writeback surfaces as a
// *FlusherError carrying dirty-set context — recorded in the flight
// recorder, classified by the experiment harness — instead of an
// anonymous panic. Engine shutdown signals pass through untouched.
func (c *Cache) flusher(v *sim.Env) {
	defer func() {
		r := recover()
		if r == nil || sim.IsKillSignal(r) {
			if r != nil {
				panic(r)
			}
			return
		}
		cause, ok := r.(error)
		if !ok {
			cause = fmt.Errorf("pagecache: flusher panic: %v", r)
		}
		fe := &FlusherError{Cause: cause, DirtyPages: c.dirtyCount}
		if c.tr != nil {
			c.tr.Note(fe.Error())
		}
		// Re-panic the classified error; sim.Proc's own recovery turns it
		// into the trial error with %w wrapping, so errors.As still sees
		// both *FlusherError and the underlying cause.
		panic(fe)
	}()
	c.flushLoop(v)
}

// flushLoop is the background writeback daemon body: it polls at a
// fraction of the flush interval and starts a pass when the dirty set
// crosses the ratio threshold, or when a full interval has elapsed with
// anything dirty at all (age-based writeback).
func (c *Cache) flushLoop(v *sim.Env) {
	poll := c.cfg.FlushInterval / 4
	if poll < sim.Millisecond {
		poll = sim.Millisecond
	}
	last := v.Now()
	for {
		v.Sleep(poll)
		due := v.Now()-last >= sim.Time(c.cfg.FlushInterval)
		if c.dirtyCount >= c.threshold || (due && c.dirtyCount > 0) {
			c.flushPass(v)
			last = v.Now()
		} else if due {
			last = v.Now()
		}
	}
}

// flushPass writes the current dirty set back in contiguous extents. The
// extent list is collected host-side first — clearing both the cache
// dirty bit and the PTE dirty bit per page — and only then issued to the
// device, where each write may block on writeback backpressure. A page
// re-dirtied after collection is simply caught by a later pass; a page
// evicted after collection was already persisted by the write this pass
// issues (reclaim sees it clean and skips its own pageout).
func (c *Cache) flushPass(v *sim.Env) {
	c.stats.FlushPasses++
	// Take the list while the pass runs: another pass may start while
	// this one waits on the device.
	extents := c.extents[:0]
	c.extents = nil
	for s := 0; s < c.totalPages; {
		word := c.dirty[s/64] >> (uint(s) % 64)
		if word == 0 {
			s = (s/64 + 1) * 64
			continue
		}
		s += bits.TrailingZeros64(word)
		if s >= c.totalPages {
			break
		}
		// Grow the dirty run bit by bit (runs cross word boundaries); a
		// run longer than MaxExtent splits into back-to-back extents.
		start := s
		n := 0
		for s < c.totalPages && n < c.cfg.MaxExtent &&
			c.dirty[s/64]&(1<<(uint(s)%64)) != 0 {
			c.dirty[s/64] &^= 1 << (uint(s) % 64)
			c.dirtyCount--
			vpn := c.vpnOf(swap.Slot(s))
			if c.table.IsPresent(vpn) {
				c.table.TestAndClearDirty(vpn)
			}
			n++
			s++
		}
		extents = append(extents, extent{start: swap.Slot(start), n: n})
	}
	for _, e := range extents {
		c.stats.Extents++
		for i := 0; i < e.n; i++ {
			slot := e.start + swap.Slot(i)
			c.stats.WritebackPages++
			c.writePage(v, slot, int64(c.vpnOf(slot)))
		}
	}
	c.extents = extents
}

// FlushAll synchronously runs flush passes until the dirty set is empty,
// then drains the backing device — the explicit fsync/unmount path, and
// what tests call to assert flush-on-drain.
func (c *Cache) FlushAll(v *sim.Env) {
	for c.dirtyCount > 0 {
		c.flushPass(v)
	}
	c.dev.Drain(v)
}

// --- accessors ---

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// DeviceStats returns the backing device's counters.
func (c *Cache) DeviceStats() swap.Stats { return c.dev.Stats() }

// ErrorLedger returns a copy of the per-file errseq ledgers, in file
// Base order. All-zero entries mean the file never saw a writeback
// error.
func (c *Cache) ErrorLedger() []FileErrors {
	return append([]FileErrors(nil), c.fileErrs...)
}

// RegisterTelemetry implements telemetry.Registrant: the cache's state
// becomes named gauges in counters.csv and policyviz. Degradation events
// (poisonings, writeback errors, throttle spans) additionally land on a
// dedicated "pagecache" track.
func (c *Cache) RegisterTelemetry(tr *telemetry.Tracer) {
	c.tr = tr
	c.trTrack = tr.Track("pagecache")
	tr.Gauge("pagecache.resident", func() int64 { return int64(c.resident) })
	tr.Gauge("pagecache.dirty", func() int64 { return int64(c.dirtyCount) })
	tr.Gauge("pagecache.shadows", func() int64 { return int64(c.shadowLive) })
	tr.Gauge("pagecache.reads", func() int64 { return int64(c.stats.Reads) })
	tr.Gauge("pagecache.writeback_pages", func() int64 { return int64(c.stats.WritebackPages) })
	tr.Gauge("pagecache.extents", func() int64 { return int64(c.stats.Extents) })
	tr.Gauge("pagecache.pageouts", func() int64 { return int64(c.stats.PageOuts) })
	tr.Gauge("pagecache.evictions", func() int64 { return int64(c.stats.Evictions) })
	tr.Gauge("pagecache.refaults", func() int64 { return int64(c.stats.Refaults) })
	tr.Gauge("pagecache.io_errors", func() int64 { return int64(c.stats.FileIOErrors) })
	tr.Gauge("pagecache.poisoned", func() int64 { return int64(c.poisonedCount) })
	tr.Gauge("pagecache.write_errors", func() int64 { return int64(c.stats.WriteErrors) })
	tr.Gauge("pagecache.data_at_risk", func() int64 { return int64(c.stats.DataAtRisk) })
	tr.Gauge("pagecache.throttle_stalls", func() int64 { return int64(c.stats.ThrottleStalls) })
}

var _ telemetry.Registrant = (*Cache)(nil)
