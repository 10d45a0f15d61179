// Package pagetable models a process page table at the granularity the
// replacement policies care about: PTEs carrying Present/Accessed/Dirty
// bits, grouped into PMD-sized regions of 512 entries (2 MB of virtual
// address space with 4 KB pages).
//
// Hardware behaviour is mimicked by Walk, which sets the Accessed (and
// Dirty) bits exactly as a page walk would; policies later harvest and
// clear those bits, either through the reverse map (Clock, MG-LRU
// eviction) or through linear region scans (MG-LRU aging).
//
// The table can contain holes — regions that are mapped into the address
// space layout but never populated. Those are what make naive linear scans
// wasteful and motivate MG-LRU's bloom filter.
//
// Storage is struct-of-arrays: the five PTE flag bits live in
// region-aligned uint64 bit planes (a region owns whole words, hence the
// multiple-of-64 fanout), and frame/swap words live in per-region chunks
// materialized only for regions the layout actually maps. Aging-walk
// harvesting is word-masked bit iteration, and construction allocates
// O(regions), not O(pages).
package pagetable

import (
	"math/bits"

	"mglrusim/internal/mem"
)

// VPN is a virtual page number within a process address space.
type VPN int64

// Layout constants (4 KB pages, x86-64-style PMD grouping).
const (
	// PTEsPerRegion is the real PMD fanout (512 PTEs = 2 MB regions) and
	// the default region size. Simulations with scaled-down footprints
	// pass a smaller region size to New so that region counts — and with
	// them the bloom-filter dynamics — stay in proportion.
	PTEsPerRegion = 512
	// PageSize in bytes.
	PageSize = 4096
)

// PTE bit positions.
const (
	BitMapped   uint8 = 1 << iota // VA is valid (backed by the process layout)
	BitPresent                    // page resident in a frame
	BitAccessed                   // set by hardware walk since last clear
	BitDirty                      // written since load
	BitFile                       // backed by a file descriptor
)

// NilSwap marks a PTE with no swap slot assigned.
const NilSwap int32 = -1

// PTE is a snapshot of one page-table entry, synthesized from the bit
// planes and the region's frame/swap chunk.
type PTE struct {
	Frame mem.FrameID // valid when BitPresent
	Swap  int32       // swap slot when swapped out, else NilSwap
	Bits  uint8
}

// Present reports whether the PTE maps a resident page.
func (p PTE) Present() bool { return p.Bits&BitPresent != 0 }

// Mapped reports whether the VA is valid at all.
func (p PTE) Mapped() bool { return p.Bits&BitMapped != 0 }

// Accessed reports the A bit.
func (p PTE) Accessed() bool { return p.Bits&BitAccessed != 0 }

// Dirty reports the D bit.
func (p PTE) Dirty() bool { return p.Bits&BitDirty != 0 }

// File reports whether the page is file-backed.
func (p PTE) File() bool { return p.Bits&BitFile != 0 }

// Table is a process page table over a contiguous span of regions.
type Table struct {
	perRegion int
	regions   int

	// One bit plane per PTE flag, region-aligned (wpr whole words per
	// region), plus per-region frame/swap chunks materialized by MapRange
	// only for regions the layout touches.
	wpr      int
	mapped   []uint64
	present  []uint64
	accessed []uint64
	dirty    []uint64
	file     []uint64
	frames   [][]mem.FrameID
	swaps    [][]int32

	regionPresent []int32 // resident pages per region
	regionSwapped []int32 // PTEs holding a swap slot per region
	presentN      int
	mappedN       int
}

// New creates a table spanning regions PMD regions of PTEsPerRegion
// entries each, all holes initially.
func New(regions int) *Table { return NewWithRegionSize(regions, PTEsPerRegion) }

// NewWithRegionSize creates a table with a custom region fanout, used by
// scaled-down simulations to keep region counts proportional. The fanout
// must be a positive multiple of 64 so every region owns whole bit-plane
// words.
func NewWithRegionSize(regions, perRegion int) *Table {
	if regions <= 0 {
		panic("pagetable: need at least one region")
	}
	if perRegion <= 0 || perRegion%64 != 0 {
		panic("pagetable: region fanout must be a positive multiple of 64")
	}
	wpr := perRegion / 64
	words := regions * wpr
	return &Table{
		perRegion:     perRegion,
		regions:       regions,
		wpr:           wpr,
		mapped:        make([]uint64, words),
		present:       make([]uint64, words),
		accessed:      make([]uint64, words),
		dirty:         make([]uint64, words),
		file:          make([]uint64, words),
		frames:        make([][]mem.FrameID, regions),
		swaps:         make([][]int32, regions),
		regionPresent: make([]int32, regions),
		regionSwapped: make([]int32, regions),
	}
}

// RegionPTEs reports the region fanout of this table.
func (t *Table) RegionPTEs() int { return t.perRegion }

// Regions reports the number of PMD regions.
func (t *Table) Regions() int { return t.regions }

// Pages reports the total VA span in pages (including holes).
func (t *Table) Pages() int { return t.regions * t.perRegion }

// PresentPages reports resident pages.
func (t *Table) PresentPages() int { return t.presentN }

// MappedPages reports valid (non-hole) pages.
func (t *Table) MappedPages() int { return t.mappedN }

// RegionOf returns the region index containing vpn.
func (t *Table) RegionOf(vpn VPN) int { return int(vpn) / t.perRegion }

// RegionStart returns the first VPN of region r.
func (t *Table) RegionStart(r int) VPN { return VPN(r * t.perRegion) }

// bitpos locates vpn in the bit planes.
func bitpos(vpn VPN) (word int, mask uint64) {
	return int(vpn >> 6), 1 << (uint(vpn) & 63)
}

// chunkIdx locates vpn in its region's frame/swap chunk.
func (t *Table) chunkIdx(vpn VPN) (region, idx int) {
	region = int(vpn) / t.perRegion
	return region, int(vpn) - region*t.perRegion
}

// ensureChunk materializes region r's frame/swap chunk.
func (t *Table) ensureChunk(r int) {
	if t.frames[r] != nil {
		return
	}
	fr := make([]mem.FrameID, t.perRegion)
	sw := make([]int32, t.perRegion)
	for i := range fr {
		fr[i] = mem.NilFrame
		sw[i] = NilSwap
	}
	t.frames[r] = fr
	t.swaps[r] = sw
}

// PTE returns a snapshot of the entry for vpn, synthesized from the bit
// planes. Callers must go through Table methods for state transitions —
// the snapshot does not write back.
func (t *Table) PTE(vpn VPN) PTE {
	w, b := bitpos(vpn)
	var pbits uint8
	if t.mapped[w]&b != 0 {
		pbits |= BitMapped
	}
	if t.present[w]&b != 0 {
		pbits |= BitPresent
	}
	if t.accessed[w]&b != 0 {
		pbits |= BitAccessed
	}
	if t.dirty[w]&b != 0 {
		pbits |= BitDirty
	}
	if t.file[w]&b != 0 {
		pbits |= BitFile
	}
	p := PTE{Frame: mem.NilFrame, Swap: NilSwap, Bits: pbits}
	if r, i := t.chunkIdx(vpn); t.frames[r] != nil {
		p.Frame = t.frames[r][i]
		p.Swap = t.swaps[r][i]
	}
	return p
}

// IsPresent reports residency for vpn without synthesizing a snapshot —
// the fault path's first question.
func (t *Table) IsPresent(vpn VPN) bool {
	w, b := bitpos(vpn)
	return t.present[w]&b != 0
}

// SwapOf reports the swap slot held by vpn, or NilSwap. Reads are live:
// callers that re-read after blocking observe concurrent reaping, exactly
// as the historical long-lived PTE pointer did.
func (t *Table) SwapOf(vpn VPN) int32 {
	if r, i := t.chunkIdx(vpn); t.swaps[r] != nil {
		return t.swaps[r][i]
	}
	return NilSwap
}

// FileBacked reports whether vpn is file-backed.
func (t *Table) FileBacked(vpn VPN) bool {
	w, b := bitpos(vpn)
	return t.file[w]&b != 0
}

// FrameOf reports the frame backing vpn, or mem.NilFrame.
func (t *Table) FrameOf(vpn VPN) mem.FrameID {
	if r, i := t.chunkIdx(vpn); t.frames[r] != nil {
		return t.frames[r][i]
	}
	return mem.NilFrame
}

// MapRange marks n pages starting at start as valid addresses (anonymous
// by default); file marks them file-backed.
func (t *Table) MapRange(start VPN, n int, file bool) {
	for i := 0; i < n; i++ {
		vpn := start + VPN(i)
		w, b := bitpos(vpn)
		if t.mapped[w]&b == 0 {
			t.mappedN++
		}
		t.mapped[w] |= b
		if file {
			t.file[w] |= b
		}
		t.ensureChunk(int(vpn) / t.perRegion)
	}
}

// Walk simulates a hardware page walk for vpn: if the page is present it
// sets the Accessed bit (and Dirty on writes) and returns its frame with
// ok=true; otherwise it returns ok=false (a fault). Walking an unmapped
// address panics — that is a workload bug, not a simulated condition.
func (t *Table) Walk(vpn VPN, write bool) (f mem.FrameID, ok bool) {
	w, b := bitpos(vpn)
	if t.mapped[w]&b == 0 {
		panic("pagetable: access to unmapped address")
	}
	if t.present[w]&b == 0 {
		return mem.NilFrame, false
	}
	t.accessed[w] |= b
	if write {
		t.dirty[w] |= b
	}
	r, i := t.chunkIdx(vpn)
	return t.frames[r][i], true
}

// Insert makes vpn resident in frame f. Any swap-slot association is
// preserved (the swap-cache copy stays valid until the page is dirtied),
// so clean re-evictions need no writeback. The new PTE starts with the
// Accessed bit set (the faulting access) and Dirty if write.
func (t *Table) Insert(vpn VPN, f mem.FrameID, write bool) {
	w, b := bitpos(vpn)
	if t.mapped[w]&b == 0 {
		panic("pagetable: inserting into unmapped address")
	}
	if t.present[w]&b != 0 {
		panic("pagetable: double insert")
	}
	t.present[w] |= b
	t.accessed[w] |= b
	if write {
		t.dirty[w] |= b
	}
	r, i := t.chunkIdx(vpn)
	t.frames[r][i] = f
	t.presentN++
	t.regionPresent[r]++
}

// InsertPrefetch makes vpn resident without an access: the Accessed and
// Dirty bits stay clear, as for pages pulled in by swap readahead. The
// swap association is preserved (the swap copy remains valid).
func (t *Table) InsertPrefetch(vpn VPN, f mem.FrameID) {
	w, b := bitpos(vpn)
	if t.mapped[w]&b == 0 {
		panic("pagetable: inserting into unmapped address")
	}
	if t.present[w]&b != 0 {
		panic("pagetable: double insert")
	}
	t.present[w] |= b
	r, i := t.chunkIdx(vpn)
	t.frames[r][i] = f
	t.presentN++
	t.regionPresent[r]++
}

// Evict clears residency for vpn, recording the swap slot it now lives in,
// and returns whether the page was dirty (needing a writeback).
func (t *Table) Evict(vpn VPN, swapSlot int32) (dirty bool) {
	w, b := bitpos(vpn)
	if t.present[w]&b == 0 {
		panic("pagetable: evicting non-present page")
	}
	dirty = t.dirty[w]&b != 0
	t.present[w] &^= b
	t.accessed[w] &^= b
	t.dirty[w] &^= b
	r, i := t.chunkIdx(vpn)
	hadSlot := t.swaps[r][i] != NilSwap
	t.frames[r][i] = mem.NilFrame
	t.swaps[r][i] = swapSlot
	if !hadSlot && swapSlot != NilSwap {
		t.regionSwapped[r]++
	} else if hadSlot && swapSlot == NilSwap {
		t.regionSwapped[r]--
	}
	t.presentN--
	t.regionPresent[r]--
	return dirty
}

// TestAndClearAccessed clears the A bit for vpn and reports whether it was
// set — the primitive both policies' scans are built on.
func (t *Table) TestAndClearAccessed(vpn VPN) bool {
	w, b := bitpos(vpn)
	was := t.accessed[w]&b != 0
	t.accessed[w] &^= b
	return was
}

// TestAndClearDirty clears the D bit for vpn and reports whether it was
// set — the flusher's page_mkclean: writeback marks the page clean so a
// later eviction need not write it again.
func (t *Table) TestAndClearDirty(vpn VPN) bool {
	w, b := bitpos(vpn)
	was := t.dirty[w]&b != 0
	t.dirty[w] &^= b
	return was
}

// RegionPresent reports how many pages of region r are resident; linear
// scans use it to skip empty regions cheaply.
func (t *Table) RegionPresent(r int) int { return int(t.regionPresent[r]) }

// RegionSwapped reports how many PTEs of region r hold a swap slot — the
// OOM killer's swapents term, maintained incrementally so badness scoring
// is O(regions).
func (t *Table) RegionSwapped(r int) int { return int(t.regionSwapped[r]) }

// ScanRegion calls fn for every PTE in region r, passing the VPN and a
// snapshot of the entry. fn must not insert or evict pages.
func (t *Table) ScanRegion(r int, fn func(VPN, PTE)) {
	start := t.RegionStart(r)
	for i := 0; i < t.perRegion; i++ {
		fn(start+VPN(i), t.PTE(start+VPN(i)))
	}
}

// HarvestRegion clears the Accessed bit of every present-and-accessed PTE
// in region r, invoking fn for each such page in ascending VPN order with
// its backing frame — the aging walk's inner loop. It returns the
// region's present and accessed (harvested) counts. The scan is
// word-masked: hole-only and cold words cost one AND each.
func (t *Table) HarvestRegion(r int, fn func(VPN, mem.FrameID)) (present, accessed int) {
	present = int(t.regionPresent[r])
	base := r * t.wpr
	frames := t.frames[r]
	for w := 0; w < t.wpr; w++ {
		// Walk only sets A on present pages and Evict clears A with
		// Present, so accessed ⊆ present; the intersection is defensive.
		hot := t.present[base+w] & t.accessed[base+w]
		if hot == 0 {
			continue
		}
		t.accessed[base+w] &^= hot
		accessed += bits.OnesCount64(hot)
		off := w * 64
		for hot != 0 {
			bit := bits.TrailingZeros64(hot)
			hot &= hot - 1
			i := off + bit
			fn(t.RegionStart(r)+VPN(i), frames[i])
		}
	}
	return present, accessed
}

// ReapRegion discards every swap-slot reference in region r, invoking fn
// for each dropped (vpn, slot) pair in ascending VPN order — the OOM
// reaper's bookkeeping loop. It returns the number of slots dropped.
func (t *Table) ReapRegion(r int, fn func(VPN, int32)) int {
	reaped := 0
	sw := t.swaps[r]
	start := t.RegionStart(r)
	for i := range sw {
		if sw[i] == NilSwap {
			continue
		}
		slot := sw[i]
		sw[i] = NilSwap
		reaped++
		fn(start+VPN(i), slot)
	}
	t.regionSwapped[r] -= int32(reaped)
	return reaped
}

// AccessedDensity scans region r counting present and accessed PTEs.
// Policies use it for the bloom-filter density rule ("at least one
// accessed PTE per cache line").
func (t *Table) AccessedDensity(r int) (present, accessed int) {
	base := r * t.wpr
	for w := 0; w < t.wpr; w++ {
		present += bits.OnesCount64(t.present[base+w])
		accessed += bits.OnesCount64(t.present[base+w] & t.accessed[base+w])
	}
	return present, accessed
}
