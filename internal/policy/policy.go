// Package policy defines the contract between the memory manager and a
// page replacement policy, plus the cost model shared by all policies'
// accessed-bit scanning.
//
// A policy owns the LRU bookkeeping (which lists pages sit on, in what
// order) and decides which resident pages to evict; the memory manager
// (package vmm) owns frames, the page table, swap, and the fault path, and
// exposes them to the policy through the Kernel interface.
package policy

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/rmap"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// Shadow is the information remembered about an evicted page, used for
// refault classification when the page comes back (the simulator's
// analogue of the kernel's shadow/workingset entries).
type Shadow struct {
	// Gen is the MG-LRU generation sequence the page belonged to when
	// evicted (0 for policies without generations).
	Gen uint64
	// Tier is the MG-LRU tier the page was evicted from.
	Tier uint8
	// Refs is the FD-access count at eviction.
	Refs uint8
	// EvictedAt is when the eviction happened.
	EvictedAt sim.Time
}

// Kernel is the memory-manager view a policy operates through.
type Kernel interface {
	// Mem exposes physical memory and frame metadata.
	Mem() *mem.Memory
	// Table exposes the process page table for accessed-bit harvesting.
	Table() *pagetable.Table
	// RMap exposes the reverse map (and its walk cost model).
	RMap() *rmap.Map
	// EvictPage unmaps the page held by frame f, writes it back as
	// needed (an anon page to the swap device, a dirty file page to the
	// page cache's file device), records sh for refault classification,
	// and frees the frame. The policy must have removed f from its lists
	// first. May block on writeback backpressure.
	EvictPage(v *sim.Env, f mem.FrameID, sh Shadow)
	// EvictStep is EvictPage as a resumable eviction, for a proc running
	// suspended (sim.Env.Suspend). It runs the eviction w until it parks
	// the proc, and then reports true; the caller calls it again with the
	// same w once the proc is continued. It reports false when the
	// eviction is over.
	EvictStep(v *sim.Env, w *EvictWalk) (parked bool)
	// RequestAging asks the background aging task to run soon.
	RequestAging()
	// Rand returns the policy's dedicated RNG stream.
	Rand() *sim.RNG
}

// Policy is a page replacement policy.
type Policy interface {
	// Name identifies the policy in reports ("clock", "mglru", ...).
	Name() string
	// Attach binds the policy to a kernel before any other call.
	Attach(k Kernel)
	// PageIn registers a page that just became resident in frame f.
	// sh is non-nil when the page was previously evicted (a refault).
	PageIn(v *sim.Env, f mem.FrameID, sh *Shadow)
	// Reclaim attempts to evict up to target pages and returns how many
	// were evicted. Called from kswapd and from direct reclaim.
	Reclaim(v *sim.Env, target int) int
	// Age performs one background aging pass, charging its scan costs to
	// the calling proc. It reports whether it did useful work.
	Age(v *sim.Env) bool
	// AgeStep is Age as a resumable walk, for a proc running suspended
	// (sim.Env.Suspend). It runs the pass cursor w until the pass parks
	// the proc, and then reports true; the caller calls it again with
	// the same w once the proc is continued. It reports false when the
	// pass is over, with its result in w.Worked. w starts zeroed.
	AgeStep(v *sim.Env, w *AgeWalk) (parked bool)
	// NeedsAging reports whether the aging task has pending work.
	NeedsAging() bool
	// Stats returns cumulative counters.
	Stats() Stats
}

// AgeWalk is the cursor of a resumable aging pass (Policy.AgeStep).
// Worked is the pass's result; the other fields are the policy's own
// record of where the pass stopped and what it carries across a park.
type AgeWalk struct {
	Worked bool

	At     uint8    // the pass's next point
	Region int      // the region being walked
	Target uint64   // the generation the pass promotes into
	Before uint64   // the generation before the pass
	Epoch  uint64   // the walk a waiting pass waits out
	Dense  bool     // the scanned region is noted for the next pass
	Lock   LockWait // the pass's place in the lock queue
}

// EvictWalk is the cursor of a resumable eviction (Kernel.EvictStep).
// The caller sets F and Shadow, EvictPage's arguments, and zeroes At;
// At and Write are the kernel's own record of where the eviction stopped
// and of the device write it has in flight, which the kernel sets up
// whole when it starts one.
type EvictWalk struct {
	F      mem.FrameID
	Shadow Shadow

	At    uint8
	Write swap.WriteWalk
}

// NoAging provides the Age, AgeStep and NeedsAging of a policy without
// background aging; embed it.
type NoAging struct{}

// Age implements Policy: there is no pass to run.
func (NoAging) Age(*sim.Env) bool { return false }

// AgeStep implements Policy: the pass is over at once and did nothing.
func (NoAging) AgeStep(_ *sim.Env, w *AgeWalk) bool {
	w.Worked = false
	return false
}

// NeedsAging implements Policy: there is never aging work.
func (NoAging) NeedsAging() bool { return false }

// Stats counts policy activity. All counters are cumulative per trial.
type Stats struct {
	PTEScanned     uint64 // PTEs examined by linear scans
	RegionsScanned uint64 // PMD regions linearly scanned
	RegionsSkipped uint64 // PMD regions filtered out of a scan
	RMapWalks      uint64 // reverse-map resolutions
	Promoted       uint64 // pages moved toward youngest/active
	Demoted        uint64 // pages moved toward eviction candidates
	Evicted        uint64 // pages evicted
	Rotated        uint64 // eviction candidates given a second chance
	AgingRuns      uint64 // background aging passes
	Refaults       uint64 // evicted pages faulted back in
	TierProtected  uint64 // pages spared by tier/PID protection
	FileProtected  uint64 // of TierProtected, spared by the file-vs-anon gain alone
	ScanCPU        sim.Duration
}

// Costs parameterizes scanning work, shared by all policies so that
// comparisons isolate algorithmic differences.
type Costs struct {
	// PTEScan is the per-present-entry cost of a linear page-table scan:
	// reading the PTE plus the folio lookup needed to classify/promote.
	// It is far below the rmap walk cost — that asymmetry is the heart
	// of the MG-LRU design argument — but a full-table walk still takes
	// real time, which is what makes Scan-All expensive.
	PTEScan sim.Duration
	// HoleScan is the per-entry cost of skipping a non-present PTE
	// (pure cache-speed streaming).
	HoleScan sim.Duration
	// RegionCheck is the cost of deciding whether to scan a region
	// (bloom lookup / metadata check).
	RegionCheck sim.Duration
	// PageOp is the bookkeeping cost of moving one page between lists.
	PageOp sim.Duration
}

// DefaultCosts returns the calibrated default scanning costs.
//
// Calibration note: the simulated footprints are ~1/1000 of the paper's
// 12–16 GB, so one simulated page stands for ~1000 real pages and every
// per-page cost is scaled up accordingly (a real linear PTE scan costs a
// few ns/entry; a real rmap walk costs a few hundred ns to µs with
// locking). This keeps the scan-cost-to-fault-cost ratio — the quantity
// the paper's §V-B/§VI-B analysis turns on — in the regime the paper
// measured.
func DefaultCosts() Costs {
	return Costs{
		PTEScan:     25 * sim.Microsecond,
		HoleScan:    300 * sim.Nanosecond,
		RegionCheck: 4 * sim.Microsecond,
		PageOp:      15 * sim.Microsecond,
	}
}
