// Package check is the simulator's correctness-tooling subsystem. It has
// three layers:
//
//   - Auditor: an invariant checker the memory manager hooks at fault-in,
//     eviction, and aging checkpoints. Off by default; when disabled the
//     only cost anywhere is a nil check per checkpoint. When enabled it
//     asserts frame conservation and ownership, policy-list membership
//     versus residency, shadow-entry discipline, LRU-lock discipline
//     across list mutations, and MG-LRU generation monotonicity.
//
//   - Replay/Differential (replay.go): a trace-replay harness that runs
//     every replacement policy — including the oracle policies of
//     internal/policy/oracle — over identical recorded workload traces at
//     a fixed capacity, and asserts the ordering bounds: no policy incurs
//     fewer faults than Belady-OPT, and exact-LRU's fault count equals
//     the Mattson stack-distance prediction of internal/trace exactly.
//
//   - The determinism suite (determinism_test.go): same seed ⇒
//     byte-identical metrics across repeated runs and across harness
//     parallelism settings.
//
// Every figure the simulator reproduces derives from which pages policies
// scan and evict; this package is what makes silent bookkeeping bugs in
// that machinery loud.
package check

import (
	"fmt"
	"strings"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	// At is the virtual time of detection.
	At sim.Time
	// Checkpoint identifies the hook that detected it ("fault-in",
	// "evict", "aging", "scan", "lock", "final").
	Checkpoint string
	// Msg describes the breach.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%v %s] %s", v.At, v.Checkpoint, v.Msg)
}

// generational is implemented by policies with a generation window
// (MG-LRU); the auditor checks its monotonicity.
type generational interface {
	MinSeq() uint64
	MaxSeq() uint64
}

// Auditor asserts memory-manager/policy bookkeeping invariants at
// checkpoints. It never charges CPU or blocks, so enabling it cannot
// perturb simulated time — audited and unaudited runs of the same seed
// produce identical metrics.
type Auditor struct {
	eng    *sim.Engine
	memory *mem.Memory
	table  *pagetable.Table
	pol    policy.Policy

	// Every is the full-state scan cadence: one O(pages) sweep per Every
	// checkpoints (cheap per-event checks always run). Default 32.
	Every int
	// MaxViolations caps recording; once reached, checking stops.
	// Default 16.
	MaxViolations int

	// extra holds registered subsystem-specific invariants (e.g. the
	// memory manager's swap-slot ownership check), run on each full scan.
	extra []func() error

	// evicted tracks pages with a live shadow entry: added when the
	// shadow is recorded at eviction, removed when it is consumed (or
	// deliberately dropped by readahead) at fault-in. Divergence from
	// the manager's view is a lost or duplicated shadow. The value is the
	// file bit: an evicted anon page must hold a swap slot, an evicted
	// file page must not (its backing location is the file).
	evicted map[pagetable.VPN]bool

	// fileResident mirrors the page cache's resident set page by page:
	// added at file fault-in/prefetch-in, removed at file eviction. The
	// cache itself keeps only a counter, so this ledger is what lets the
	// auditor reconcile it at every file event (not just full scans) and
	// name the offending pages when a sweep disagrees.
	fileResident map[pagetable.VPN]bool

	// shadows, when set, is the shadow-entry store the full scan
	// cross-checks against evicted, entry for entry.
	shadows ShadowStore

	// fc, when set, is the page cache whose resident count the full scan
	// cross-checks.
	fc FileCache

	genSeen          bool
	lastMin, lastMax uint64

	checkpoints uint64
	violations  []Violation

	// reporter, when set, receives each violation at detection time. It is
	// the auditor→telemetry hook: the vmm wires it to the trial's flight
	// recorder so the invariant diff reaches flight.txt immediately, not
	// only through the end-of-trial error path (which a panic can bypass).
	reporter func(Violation)

	// scratch buffers reused across full scans.
	freeSet  []bool
	frameOwn []int64
}

// ShadowStore is the memory manager's shadow-entry store, one for anon
// and file pages alike, as the auditor cross-checks it.
type ShadowStore interface {
	Has(vpn pagetable.VPN) bool
	Len() int
}

// FileCache is the page-cache view the auditor cross-checks under
// page-cache mode: file-page conservation (resident count versus a full
// PTE scan).
type FileCache interface {
	ResidentFilePages() int
}

// NewAuditor creates an auditor over one trial's memory, table, and
// policy. Call WatchLists to additionally enforce lock discipline.
func NewAuditor(eng *sim.Engine, memory *mem.Memory, table *pagetable.Table, pol policy.Policy) *Auditor {
	return &Auditor{
		eng:           eng,
		memory:        memory,
		table:         table,
		pol:           pol,
		Every:         32,
		MaxViolations: 16,
		evicted:       make(map[pagetable.VPN]bool),
		fileResident:  make(map[pagetable.VPN]bool),
		freeSet:       make([]bool, memory.Size()),
		frameOwn:      make([]int64, memory.Size()),
	}
}

// SetShadows attaches the shadow-entry store; the full scan then
// cross-checks it against the eviction ledger.
func (a *Auditor) SetShadows(s ShadowStore) { a.shadows = s }

// SetFileCache attaches the page cache for the file-page invariants; the
// full scan then cross-checks its resident count.
func (a *Auditor) SetFileCache(fc FileCache) { a.fc = fc }

// WatchLists installs the list-mutation hook: every LRU-list insert or
// remove must happen with the policy's lruvec lock held by the acting
// proc. No-op for policies that do not expose their lock.
func (a *Auditor) WatchLists() {
	ld, ok := a.pol.(policy.LockDebugger)
	if !ok {
		return
	}
	lock := ld.DebugLock()
	a.memory.SetMutationHook(func(listID int16, f mem.FrameID) {
		cur := a.eng.Current()
		if cur == nil {
			return // engine context (setup/shutdown), no lock discipline
		}
		if lock.DebugOwner() != cur {
			a.violate(a.eng.Now(), "lock", fmt.Sprintf(
				"list %d mutated for frame %d by proc %q without holding the LRU lock",
				listID, f, cur.Name()))
		}
	})
}

// AddInvariant registers an extra check run on every full-state scan; a
// non-nil error is recorded as a violation.
func (a *Auditor) AddInvariant(fn func() error) { a.extra = append(a.extra, fn) }

// disabled reports whether the violation cap has been reached.
func (a *Auditor) disabled() bool { return len(a.violations) >= a.MaxViolations }

func (a *Auditor) violate(at sim.Time, checkpoint, msg string) {
	if a.disabled() {
		return
	}
	v := Violation{At: at, Checkpoint: checkpoint, Msg: msg}
	a.violations = append(a.violations, v)
	if a.reporter != nil {
		a.reporter(v)
	}
}

// SetReporter installs a sink invoked for each violation as it is
// detected (bounded by MaxViolations, like recording itself).
func (a *Auditor) SetReporter(fn func(Violation)) { a.reporter = fn }

// FaultIn is the fault-path checkpoint, called after the PTE is installed
// (and any shadow consumed) but before the policy's PageIn.
func (a *Auditor) FaultIn(v *sim.Env, vpn pagetable.VPN, hadShadow bool) {
	if a.disabled() {
		return
	}
	a.noteReturn(v.Now(), "fault-in", vpn, hadShadow)
	a.checkpoint(v.Now(), "fault-in")
}

// PrefetchIn is the readahead checkpoint: the page became resident
// speculatively and its shadow, if any, was deliberately dropped.
func (a *Auditor) PrefetchIn(v *sim.Env, vpn pagetable.VPN, hadShadow bool) {
	if a.disabled() {
		return
	}
	a.noteReturn(v.Now(), "prefetch-in", vpn, hadShadow)
	a.checkpoint(v.Now(), "prefetch-in")
}

// FileFaultIn is the file-fault checkpoint: a file page became resident
// through the page cache, consuming its shadow entry if one existed.
func (a *Auditor) FileFaultIn(v *sim.Env, vpn pagetable.VPN, hadShadow bool) {
	if a.disabled() {
		return
	}
	a.noteReturn(v.Now(), "file-fault-in", vpn, hadShadow)
	a.noteFileResident(v.Now(), "file-fault-in", vpn)
	a.checkpoint(v.Now(), "file-fault-in")
}

// FilePrefetchIn is the file-readahead checkpoint: the page became
// resident speculatively and its shadow, if any, was deliberately
// dropped.
func (a *Auditor) FilePrefetchIn(v *sim.Env, vpn pagetable.VPN, hadShadow bool) {
	if a.disabled() {
		return
	}
	a.noteReturn(v.Now(), "file-prefetch-in", vpn, hadShadow)
	a.noteFileResident(v.Now(), "file-prefetch-in", vpn)
	a.checkpoint(v.Now(), "file-prefetch-in")
}

// FilePrefetchAbandoned undoes a FilePrefetchIn whose speculative read
// failed: the page was torn back out untouched, leaving no shadow entry
// (speculation failing is not an eviction).
func (a *Auditor) FilePrefetchAbandoned(v *sim.Env, vpn pagetable.VPN) {
	if a.disabled() {
		return
	}
	now := v.Now()
	if !a.fileResident[vpn] {
		a.violate(now, "file-prefetch-abandon", fmt.Sprintf("file vpn %d prefetch abandoned but the auditor never saw it become resident", vpn))
	}
	delete(a.fileResident, vpn)
	if a.fc != nil && a.fc.ResidentFilePages() != len(a.fileResident) {
		a.violate(now, "file-prefetch-abandon", fmt.Sprintf("after abandoning file vpn %d the cache counts %d resident file pages, the auditor ledger %d", vpn, a.fc.ResidentFilePages(), len(a.fileResident)))
	}
	if pte := a.table.PTE(vpn); pte.Present() {
		a.violate(now, "file-prefetch-abandon", fmt.Sprintf("file vpn %d still present after its prefetch was abandoned", vpn))
	}
	a.checkpoint(now, "file-prefetch-abandon")
}

// noteFileResident reconciles the page cache's resident count with the
// auditor's own page-by-page ledger at the moment a file page is
// installed. Checking at every file event — not only at full scans —
// pins a drifting counter to the exact install or evict that broke it.
func (a *Auditor) noteFileResident(now sim.Time, kind string, vpn pagetable.VPN) {
	if a.fileResident[vpn] {
		a.violate(now, kind, fmt.Sprintf("file vpn %d became resident twice without an intervening eviction", vpn))
	}
	a.fileResident[vpn] = true
	if a.fc != nil && a.fc.ResidentFilePages() != len(a.fileResident) {
		a.violate(now, kind, fmt.Sprintf("after installing file vpn %d the cache counts %d resident file pages, the auditor ledger %d", vpn, a.fc.ResidentFilePages(), len(a.fileResident)))
	}
}

// noteReturn reconciles the shadow ledger with a page becoming resident
// and spot-checks the new mapping.
func (a *Auditor) noteReturn(now sim.Time, kind string, vpn pagetable.VPN, hadShadow bool) {
	_, evicted := a.evicted[vpn]
	if hadShadow && !evicted {
		a.violate(now, kind, fmt.Sprintf("vpn %d returned with a shadow the auditor never saw recorded (duplicated shadow)", vpn))
	}
	if !hadShadow && evicted {
		a.violate(now, kind, fmt.Sprintf("vpn %d refaulted without its shadow (lost shadow entry)", vpn))
	}
	delete(a.evicted, vpn)

	pte := a.table.PTE(vpn)
	if !pte.Present() {
		a.violate(now, kind, fmt.Sprintf("vpn %d not present immediately after insert", vpn))
		return
	}
	if fr := a.memory.Frame(pte.Frame); fr.VPN != int64(vpn) {
		a.violate(now, kind, fmt.Sprintf("vpn %d installed in frame %d but frame back-reference says vpn %d", vpn, pte.Frame, fr.VPN))
	}
}

// Evicted is the eviction checkpoint, called the moment the shadow entry
// is recorded (PTE already cleared, before eviction I/O).
func (a *Auditor) Evicted(v *sim.Env, vpn pagetable.VPN) {
	if a.disabled() {
		return
	}
	now := v.Now()
	if _, ok := a.evicted[vpn]; ok {
		a.violate(now, "evict", fmt.Sprintf("vpn %d evicted twice without an intervening fault-in (shadow overwritten)", vpn))
	}
	a.evicted[vpn] = false
	pte := a.table.PTE(vpn)
	if pte.Present() {
		a.violate(now, "evict", fmt.Sprintf("vpn %d still present after eviction", vpn))
	}
	if pte.Swap == pagetable.NilSwap {
		a.violate(now, "evict", fmt.Sprintf("vpn %d evicted without a swap slot", vpn))
	}
	a.checkpoint(now, "evict")
}

// EvictedFile is the file-page eviction checkpoint, called the moment
// the shadow entry is recorded. The swap-slot assertion is
// the inverse of Evicted's: file pages are backed by their file, so an
// evicted file page must NOT hold a swap slot.
func (a *Auditor) EvictedFile(v *sim.Env, vpn pagetable.VPN) {
	if a.disabled() {
		return
	}
	now := v.Now()
	if _, ok := a.evicted[vpn]; ok {
		a.violate(now, "evict-file", fmt.Sprintf("file vpn %d evicted twice without an intervening fault-in (shadow overwritten)", vpn))
	}
	a.evicted[vpn] = true
	if !a.fileResident[vpn] {
		a.violate(now, "evict-file", fmt.Sprintf("file vpn %d evicted but the auditor never saw it become resident", vpn))
	}
	delete(a.fileResident, vpn)
	if a.fc != nil && a.fc.ResidentFilePages() != len(a.fileResident) {
		a.violate(now, "evict-file", fmt.Sprintf("after evicting file vpn %d the cache counts %d resident file pages, the auditor ledger %d", vpn, a.fc.ResidentFilePages(), len(a.fileResident)))
	}
	pte := a.table.PTE(vpn)
	if pte.Present() {
		a.violate(now, "evict-file", fmt.Sprintf("file vpn %d still present after eviction", vpn))
	}
	if pte.Swap != pagetable.NilSwap {
		a.violate(now, "evict-file", fmt.Sprintf("file vpn %d evicted holding swap slot %d; file pages write back to their file, never to swap", vpn, pte.Swap))
	}
	a.checkpoint(now, "evict-file")
}

// Reaped tells the auditor that vpn's swap copy and shadow entry were
// discarded by the OOM reaper: the page may legitimately refault later
// without a shadow, so it leaves the evicted set.
func (a *Auditor) Reaped(vpn pagetable.VPN) { delete(a.evicted, vpn) }

// AgingPass is the aging checkpoint, called after each background aging
// run.
func (a *Auditor) AgingPass(v *sim.Env) {
	if a.disabled() {
		return
	}
	a.checkGenerations(v.Now(), "aging")
	a.checkpoint(v.Now(), "aging")
}

// checkGenerations asserts the MG-LRU generation window only moves
// forward and stays ordered.
func (a *Auditor) checkGenerations(now sim.Time, kind string) {
	g, ok := a.pol.(generational)
	if !ok {
		return
	}
	minSeq, maxSeq := g.MinSeq(), g.MaxSeq()
	if minSeq > maxSeq {
		a.violate(now, kind, fmt.Sprintf("generation window inverted: min %d > max %d", minSeq, maxSeq))
	}
	if a.genSeen {
		if minSeq < a.lastMin {
			a.violate(now, kind, fmt.Sprintf("min generation moved backwards: %d -> %d", a.lastMin, minSeq))
		}
		if maxSeq < a.lastMax {
			a.violate(now, kind, fmt.Sprintf("max generation moved backwards: %d -> %d", a.lastMax, maxSeq))
		}
	}
	a.genSeen, a.lastMin, a.lastMax = true, minSeq, maxSeq
}

// checkpoint counts events and runs the periodic full-state scan.
func (a *Auditor) checkpoint(now sim.Time, kind string) {
	a.checkpoints++
	if a.Every > 0 && a.checkpoints%uint64(a.Every) == 0 {
		a.Scan(now)
	}
}

// Scan performs one full-state sweep: frame conservation and ownership,
// list membership versus residency, shadow-set consistency, and all
// registered extra invariants. It is O(frames + pages).
func (a *Auditor) Scan(now sim.Time) {
	if a.disabled() {
		return
	}
	// Free-list view: free frames must be fully reset.
	for i := range a.freeSet {
		a.freeSet[i] = false
	}
	a.memory.EachFree(func(f mem.FrameID) {
		if a.freeSet[f] {
			a.violate(now, "scan", fmt.Sprintf("frame %d appears twice on the free list (double free)", f))
		}
		a.freeSet[f] = true
		fr := a.memory.Frame(f)
		if fr.VPN != -1 {
			a.violate(now, "scan", fmt.Sprintf("free frame %d still claims vpn %d", f, fr.VPN))
		}
		if fr.ListID != mem.ListNone {
			a.violate(now, "scan", fmt.Sprintf("free frame %d still on policy list %d", f, fr.ListID))
		}
	})

	// Table walk: each present PTE owns exactly one frame, which points
	// back at it and is not free.
	for i := range a.frameOwn {
		a.frameOwn[i] = -1
	}
	present, presentFile := 0, 0
	pages := a.table.Pages()
	for i := 0; i < pages; i++ {
		vpn := pagetable.VPN(i)
		pte := a.table.PTE(vpn)
		if !pte.Present() {
			continue
		}
		present++
		if pte.File() {
			presentFile++
		}
		f := pte.Frame
		if f < 0 || int(f) >= a.memory.Size() {
			a.violate(now, "scan", fmt.Sprintf("vpn %d maps out-of-range frame %d", vpn, f))
			continue
		}
		if a.freeSet[f] {
			a.violate(now, "scan", fmt.Sprintf("vpn %d maps frame %d which is on the free list (use after free)", vpn, f))
		}
		if prev := a.frameOwn[f]; prev >= 0 {
			a.violate(now, "scan", fmt.Sprintf("frame %d owned by two VPNs: %d and %d", f, prev, vpn))
		}
		a.frameOwn[f] = int64(vpn)
		if fr := a.memory.Frame(f); fr.VPN != int64(vpn) {
			a.violate(now, "scan", fmt.Sprintf("vpn %d maps frame %d whose back-reference says vpn %d", vpn, f, fr.VPN))
		}
	}
	if present != a.table.PresentPages() {
		a.violate(now, "scan", fmt.Sprintf("present-page counter drift: counted %d, table says %d", present, a.table.PresentPages()))
	}

	// Frame sweep: conservation and list membership. Frames are free,
	// owned by a present PTE, or in flight (allocated mid-fault, or
	// isolated mid-eviction); anything else is a leak or a stale link.
	inflight := 0
	size := a.memory.Size()
	for i := 0; i < size; i++ {
		f := mem.FrameID(i)
		if a.freeSet[f] {
			continue
		}
		fr := a.memory.Frame(f)
		claimed := a.frameOwn[f] >= 0
		if !claimed {
			inflight++
			if fr.ListID != mem.ListNone {
				a.violate(now, "scan", fmt.Sprintf("frame %d (vpn %d) on policy list %d but not resident in the page table", f, fr.VPN, fr.ListID))
			}
		} else if fr.VPN != a.frameOwn[f] {
			a.violate(now, "scan", fmt.Sprintf("frame %d claims vpn %d but is mapped by vpn %d", f, fr.VPN, a.frameOwn[f]))
		}
	}
	if got := present + inflight + a.memory.FreePages(); got != size {
		a.violate(now, "scan", fmt.Sprintf("frame conservation broken: present %d + in-flight %d + free %d != total %d",
			present, inflight, a.memory.FreePages(), size))
	}

	// Shadow set: every page the auditor believes is evicted must be
	// non-resident, hold a swap slot if it is an anon page and none if it
	// is a file page, and have an entry in the shadow store. The store's
	// live count catches the converse (entries the ledger never saw).
	for vpn, file := range a.evicted {
		pte := a.table.PTE(vpn)
		switch {
		case pte.Present() && file:
			a.violate(now, "scan", fmt.Sprintf("file vpn %d resident but auditor saw no file fault-in since its eviction", vpn))
		case pte.Present():
			a.violate(now, "scan", fmt.Sprintf("vpn %d resident but auditor saw no fault-in since its eviction (missed checkpoint or lost shadow)", vpn))
		case file && pte.Swap != pagetable.NilSwap:
			a.violate(now, "scan", fmt.Sprintf("evicted file vpn %d holds swap slot %d", vpn, pte.Swap))
		case !file && pte.Swap == pagetable.NilSwap:
			a.violate(now, "scan", fmt.Sprintf("evicted vpn %d has no swap slot", vpn))
		}
		if a.shadows != nil && !a.shadows.Has(vpn) {
			a.violate(now, "scan", fmt.Sprintf("evicted vpn %d has no shadow entry", vpn))
		}
	}
	if a.shadows != nil && a.shadows.Len() != len(a.evicted) {
		a.violate(now, "scan", fmt.Sprintf("shadow count %d != auditor eviction ledger %d", a.shadows.Len(), len(a.evicted)))
	}
	if a.fc != nil {
		// File-page conservation: the cache's resident count must match
		// a full PTE sweep.
		if got := a.fc.ResidentFilePages(); got != presentFile {
			// Name the pages the cache never saw become resident — the
			// usual culprit is an install path that missed NoteResident.
			var phantom []pagetable.VPN
			for i := 0; i < pages; i++ {
				vpn := pagetable.VPN(i)
				if p := a.table.PTE(vpn); p.Present() && p.File() && !a.fileResident[vpn] {
					phantom = append(phantom, vpn)
				}
			}
			a.violate(now, "scan", fmt.Sprintf("page cache claims %d resident file pages, table sweep found %d (never-noted vpns: %v)", got, presentFile, phantom))
		}
	}

	a.checkGenerations(now, "scan")
	for _, fn := range a.extra {
		if err := fn(); err != nil {
			a.violate(now, "scan", err.Error())
		}
	}
}

// Final runs a last full-state scan (call when the trial ends).
func (a *Auditor) Final(now sim.Time) {
	a.Scan(now)
}

// Checkpoints reports how many checkpoint events the auditor has seen.
func (a *Auditor) Checkpoints() uint64 { return a.checkpoints }

// Violations returns everything detected so far.
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns nil when no invariant was breached, else an error
// summarizing the violations.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", len(a.violations))
	for i, v := range a.violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(a.violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}
