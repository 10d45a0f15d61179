package pagetable

import (
	"testing"

	"mglrusim/internal/mem"
)

// fuzzRegions/fuzzPerRegion keep the fuzz table small enough that random
// byte streams reach every region.
const (
	fuzzRegions   = 4
	fuzzPerRegion = 64
)

// fuzzTarget is the surface the op decoder drives; *Table and the
// reference model both implement it.
type fuzzTarget interface {
	Pages() int
	Regions() int
	PTE(VPN) PTE
	MapRange(VPN, int, bool)
	Walk(VPN, bool) (mem.FrameID, bool)
	Insert(VPN, mem.FrameID, bool)
	InsertPrefetch(VPN, mem.FrameID)
	Evict(VPN, int32) bool
	TestAndClearAccessed(VPN) bool
	HarvestRegion(int, func(VPN, mem.FrameID)) (int, int)
	ReapRegion(int, func(VPN, int32)) int
	AccessedDensity(int) (int, int)
	RegionPresent(int) int
	RegionSwapped(int) int
}

// model is the reference the bit-plane table is held to: one map entry
// per touched PTE, every counter recomputed by brute force on demand.
// It is written for obviousness, not speed.
type model struct {
	regions, perRegion int
	ptes               map[VPN]PTE
}

func newModel(regions, perRegion int) *model {
	return &model{regions: regions, perRegion: perRegion, ptes: map[VPN]PTE{}}
}

func (m *model) Pages() int   { return m.regions * m.perRegion }
func (m *model) Regions() int { return m.regions }

func (m *model) PTE(vpn VPN) PTE {
	if p, ok := m.ptes[vpn]; ok {
		return p
	}
	return PTE{Frame: mem.NilFrame, Swap: NilSwap}
}

func (m *model) MapRange(start VPN, n int, file bool) {
	for v := start; v < start+VPN(n); v++ {
		p := m.PTE(v)
		p.Bits |= BitMapped
		if file {
			p.Bits |= BitFile
		}
		m.ptes[v] = p
	}
}

func (m *model) Walk(vpn VPN, write bool) (mem.FrameID, bool) {
	p := m.PTE(vpn)
	if !p.Mapped() {
		panic("model: access to unmapped address")
	}
	if !p.Present() {
		return mem.NilFrame, false
	}
	p.Bits |= BitAccessed
	if write {
		p.Bits |= BitDirty
	}
	m.ptes[vpn] = p
	return p.Frame, true
}

func (m *model) Insert(vpn VPN, f mem.FrameID, write bool) {
	p := m.PTE(vpn)
	p.Frame = f
	p.Bits |= BitPresent | BitAccessed
	if write {
		p.Bits |= BitDirty
	}
	m.ptes[vpn] = p
}

func (m *model) InsertPrefetch(vpn VPN, f mem.FrameID) {
	p := m.PTE(vpn)
	p.Frame = f
	p.Bits |= BitPresent
	m.ptes[vpn] = p
}

func (m *model) Evict(vpn VPN, slot int32) bool {
	p := m.PTE(vpn)
	dirty := p.Dirty()
	p.Frame = mem.NilFrame
	p.Swap = slot
	p.Bits &^= BitPresent | BitAccessed | BitDirty
	m.ptes[vpn] = p
	return dirty
}

func (m *model) TestAndClearAccessed(vpn VPN) bool {
	p := m.PTE(vpn)
	was := p.Accessed()
	p.Bits &^= BitAccessed
	m.ptes[vpn] = p
	return was
}

// region returns region r's VPNs in ascending order.
func (m *model) region(r int) []VPN {
	out := make([]VPN, m.perRegion)
	for i := range out {
		out[i] = VPN(r*m.perRegion + i)
	}
	return out
}

func (m *model) HarvestRegion(r int, fn func(VPN, mem.FrameID)) (present, accessed int) {
	for _, v := range m.region(r) {
		p := m.PTE(v)
		if !p.Present() {
			continue
		}
		present++
		if p.Accessed() {
			accessed++
			p.Bits &^= BitAccessed
			m.ptes[v] = p
			fn(v, p.Frame)
		}
	}
	return present, accessed
}

func (m *model) ReapRegion(r int, fn func(VPN, int32)) int {
	n := 0
	for _, v := range m.region(r) {
		p := m.PTE(v)
		if p.Swap == NilSwap {
			continue
		}
		slot := p.Swap
		p.Swap = NilSwap
		m.ptes[v] = p
		n++
		fn(v, slot)
	}
	return n
}

func (m *model) AccessedDensity(r int) (present, accessed int) {
	for _, v := range m.region(r) {
		if p := m.PTE(v); p.Present() {
			present++
			if p.Accessed() {
				accessed++
			}
		}
	}
	return present, accessed
}

func (m *model) RegionPresent(r int) int {
	present, _ := m.AccessedDensity(r)
	return present
}

func (m *model) RegionSwapped(r int) int {
	n := 0
	for _, v := range m.region(r) {
		if m.PTE(v).Swap != NilSwap {
			n++
		}
	}
	return n
}

// totals counts resident and mapped pages over the whole span.
func (m *model) totals() (present, mapped int) {
	for _, p := range m.ptes {
		if p.Present() {
			present++
		}
		if p.Mapped() {
			mapped++
		}
	}
	return present, mapped
}

// applyFuzzOp decodes one operation from (op, a, b) and applies it to t.
// Guards read t's own state, and the table and model are held equal
// after every step, so both get the identical call sequence. Returns a
// small result fingerprint so the caller can diff observable behaviour
// per-op.
func applyFuzzOp(t fuzzTarget, op, a, b byte, slot int32) (r1, r2 int64) {
	pages := VPN(t.Pages())
	vpn := VPN(a) % pages
	region := int(a) % t.Regions()
	switch op % 10 {
	case 0: // map a short run (possibly re-mapping, possibly file-backed)
		n := int(b)%8 + 1
		if int(vpn)+n > int(pages) {
			n = int(pages - vpn)
		}
		t.MapRange(vpn, n, b&1 != 0)
	case 1: // hardware walk
		if t.PTE(vpn).Mapped() {
			f, ok := t.Walk(vpn, b&1 != 0)
			r1 = int64(f)
			if ok {
				r2 = 1
			}
		}
	case 2: // demand fault-in
		p := t.PTE(vpn)
		if p.Mapped() && !p.Present() {
			t.Insert(vpn, mem.FrameID(b), b&1 != 0)
		}
	case 3: // readahead fault-in
		p := t.PTE(vpn)
		if p.Mapped() && !p.Present() {
			t.InsertPrefetch(vpn, mem.FrameID(b))
		}
	case 4: // evict, alternating real slots and slotless drops
		if t.PTE(vpn).Present() {
			s := slot
			if b&1 != 0 {
				s = NilSwap
			}
			if t.Evict(vpn, s) {
				r1 = 1
			}
		}
	case 5: // A-bit harvest primitive
		if t.TestAndClearAccessed(vpn) {
			r1 = 1
		}
	case 6: // aging-walk inner loop: order and payload must match
		var sum int64
		present, accessed := t.HarvestRegion(region, func(v VPN, f mem.FrameID) {
			sum = sum*1000003 + int64(v)*31 + int64(f)
		})
		r1 = int64(present)*100000 + int64(accessed)
		r2 = sum
	case 7: // OOM-reaper loop: order and dropped slots must match
		var sum int64
		n := t.ReapRegion(region, func(v VPN, s int32) {
			sum = sum*1000003 + int64(v)*31 + int64(s)
		})
		r1 = int64(n)
		r2 = sum
	case 8: // bloom density rule inputs
		present, accessed := t.AccessedDensity(region)
		r1 = int64(present)
		r2 = int64(accessed)
	case 9: // region counters
		r1 = int64(t.RegionPresent(region))
		r2 = int64(t.RegionSwapped(region))
	}
	return r1, r2
}

// diffTables fails the test at the first observable divergence between the
// table and the model: global counters, then every PTE snapshot and live
// accessor, then the per-region counters.
func diffTables(t *testing.T, tb *Table, m *model, step int) {
	t.Helper()
	present, mapped := m.totals()
	if tb.PresentPages() != present || tb.MappedPages() != mapped {
		t.Fatalf("step %d: global counters diverge: table present=%d mapped=%d, model present=%d mapped=%d",
			step, tb.PresentPages(), tb.MappedPages(), present, mapped)
	}
	for vpn := VPN(0); vpn < VPN(tb.Pages()); vpn++ {
		tp, mp := tb.PTE(vpn), m.PTE(vpn)
		if tp != mp {
			t.Fatalf("step %d: PTE(%d) diverges: table %+v, model %+v", step, vpn, tp, mp)
		}
		if tb.IsPresent(vpn) != mp.Present() ||
			tb.SwapOf(vpn) != mp.Swap ||
			tb.FileBacked(vpn) != mp.File() ||
			tb.FrameOf(vpn) != mp.Frame {
			t.Fatalf("step %d: accessors diverge at vpn %d", step, vpn)
		}
	}
	for r := 0; r < tb.Regions(); r++ {
		if tb.RegionPresent(r) != m.RegionPresent(r) || tb.RegionSwapped(r) != m.RegionSwapped(r) {
			t.Fatalf("step %d: region %d counters diverge: table (%d,%d), model (%d,%d)", step, r,
				tb.RegionPresent(r), tb.RegionSwapped(r), m.RegionPresent(r), m.RegionSwapped(r))
		}
	}
}

// FuzzTableVsModel drives the identical operation stream — maps, walks,
// inserts, evictions, harvests, reaps — through the bit-plane table and a
// map-per-PTE reference model and requires exact agreement after every
// step: op results (including harvest/reap callback order), every PTE
// snapshot, every accessor, and all counters. The model recomputes its
// counters by brute force, so any divergence is a bit-plane or
// incremental-counter bug in the table.
func FuzzTableVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0, 0, 2, 0, 3, 1, 0, 1, 4, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 128, 200, 2, 130, 7, 4, 130, 0, 7, 130, 0, 9, 2, 0})
	f.Add([]byte{0, 0, 255, 0, 64, 255, 2, 5, 1, 5, 5, 0, 8, 1, 0, 6, 0, 0, 7, 0, 0})
	// Swap-slot lifecycle on one page: evict to a slot, refault, drop
	// the slot on a slotless re-evict, evict to a slot again, then reap.
	f.Add([]byte{0, 0, 0, 2, 0, 0, 4, 0, 0, 2, 0, 2, 4, 0, 1, 2, 0, 4, 4, 0, 0, 7, 0, 0, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewWithRegionSize(fuzzRegions, fuzzPerRegion)
		m := newModel(fuzzRegions, fuzzPerRegion)
		slot := int32(1)
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			t1, t2 := applyFuzzOp(tb, op, a, b, slot)
			m1, m2 := applyFuzzOp(m, op, a, b, slot)
			slot++
			if t1 != m1 || t2 != m2 {
				t.Fatalf("step %d (op %d a %d b %d): results diverge: table (%d,%d), model (%d,%d)",
					i/3, op%10, a, b, t1, t2, m1, m2)
			}
			diffTables(t, tb, m, i/3)
		}
	})
}
