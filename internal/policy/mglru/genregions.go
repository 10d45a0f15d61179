package mglru

import (
	"fmt"
	"math/bits"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
)

// genRegions mirrors generation membership at region granularity: for
// each live generation slot it keeps a region bitset plus a packed
// per-region page count (the intra-region cursor state), updated at every
// list transition. The structure is the bitset-backed view of the
// generation ring that the invariant auditor cross-checks against the
// intrusive lists, and the ground truth the bloom-gated-walk tests
// compare filters against: a region is in generation seq's set iff some
// page of that region is on seq's list.
type genRegions struct {
	regions int
	words   int
	counts  [][]uint16 // [slot][region] pages of region on the slot's list
	bits    [][]uint64 // [slot][word] summary bitset over regions
}

func newGenRegions(maxGens, regions int) *genRegions {
	words := (regions + 63) / 64
	gr := &genRegions{
		regions: regions,
		words:   words,
		counts:  make([][]uint16, maxGens),
		bits:    make([][]uint64, maxGens),
	}
	for i := range gr.counts {
		gr.counts[i] = make([]uint16, regions)
		gr.bits[i] = make([]uint64, words)
	}
	return gr
}

func (gr *genRegions) slot(seq uint64) int { return int(seq % uint64(len(gr.counts))) }

func (gr *genRegions) add(seq uint64, r int) {
	s := gr.slot(seq)
	gr.counts[s][r]++
	gr.bits[s][r/64] |= 1 << (uint(r) % 64)
}

func (gr *genRegions) remove(seq uint64, r int) {
	s := gr.slot(seq)
	if gr.counts[s][r] == 0 {
		panic("mglru: region tracker underflow")
	}
	gr.counts[s][r]--
	if gr.counts[s][r] == 0 {
		gr.bits[s][r/64] &^= 1 << (uint(r) % 64)
	}
}

// each iterates generation seq's regions in ascending order.
func (gr *genRegions) each(seq uint64, fn func(r int) bool) {
	b := gr.bits[gr.slot(seq)]
	for w := 0; w < gr.words; w++ {
		word := b[w]
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if !fn(r) {
				return
			}
		}
	}
}

// --- MGLRU hooks -----------------------------------------------------

// trackAdd/trackRemove mirror a frame entering/leaving generation seq's
// list. Callers pass the frame while its VPN is still valid (resident or
// freshly isolated).
func (g *MGLRU) trackAdd(seq uint64, fr *mem.Frame) {
	if g.genRegs != nil {
		g.genRegs.add(seq, g.k.Table().RegionOf(pagetable.VPN(fr.VPN)))
	}
}

func (g *MGLRU) trackRemove(seq uint64, fr *mem.Frame) {
	if g.genRegs != nil {
		g.genRegs.remove(seq, g.k.Table().RegionOf(pagetable.VPN(fr.VPN)))
	}
}

// CheckInvariants recomputes the region occupancy of every live
// generation from the intrusive lists and diffs it against the tracker.
// The invariant auditor registers it when auditing a tracking-enabled
// MG-LRU; it returns nil when tracking is off.
func (g *MGLRU) CheckInvariants() error {
	if g.genRegs == nil {
		return nil
	}
	table := g.k.Table()
	memry := g.k.Mem()
	for seq := g.minSeq; seq <= g.maxSeq; seq++ {
		want := make(map[int]int)
		g.genList(seq).Each(func(f mem.FrameID) bool {
			fr := memry.Frame(f)
			if fr.Gen != seq {
				return true // cross-checked by the auditor's generation scan
			}
			want[table.RegionOf(pagetable.VPN(fr.VPN))]++
			return true
		})
		got := 0
		var err error
		g.genRegs.each(seq, func(r int) bool {
			got++
			if int(g.genRegs.counts[g.genRegs.slot(seq)][r]) != want[r] {
				err = fmt.Errorf("gen %d region %d: tracker holds %d pages, lists hold %d",
					seq, r, g.genRegs.counts[g.genRegs.slot(seq)][r], want[r])
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if got != len(want) {
			return fmt.Errorf("gen %d: tracker covers %d regions, lists cover %d", seq, got, len(want))
		}
	}
	return nil
}
