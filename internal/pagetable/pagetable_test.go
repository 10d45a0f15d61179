package pagetable

import (
	"testing"
	"testing/quick"

	"mglrusim/internal/mem"
)

func newMapped(regions, pages int) *Table {
	t := New(regions)
	t.MapRange(0, pages, false)
	return t
}

func TestWalkFaultsOnNonPresent(t *testing.T) {
	tb := newMapped(1, 10)
	if _, ok := tb.Walk(3, false); ok {
		t.Fatal("walk of non-present page should fault")
	}
}

func TestWalkUnmappedPanics(t *testing.T) {
	tb := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unmapped access")
		}
	}()
	tb.Walk(5, false)
}

func TestInsertWalkSetsAccessedAndDirty(t *testing.T) {
	tb := newMapped(1, 10)
	tb.Insert(4, mem.FrameID(7), false)
	p := tb.PTE(4)
	if !p.Present() || !p.Accessed() || p.Dirty() {
		t.Fatalf("bits after read insert: %08b", p.Bits)
	}
	f, ok := tb.Walk(4, true)
	if !ok || f != 7 {
		t.Fatalf("walk = (%d, %v)", f, ok)
	}
	if !tb.PTE(4).Dirty() {
		t.Fatal("write walk should set dirty")
	}
	if tb.PresentPages() != 1 {
		t.Fatalf("present = %d", tb.PresentPages())
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	tb := newMapped(1, 4)
	tb.Insert(1, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double insert")
		}
	}()
	tb.Insert(1, 1, false)
}

func TestEvictReturnsDirtyAndStoresSlot(t *testing.T) {
	tb := newMapped(1, 4)
	tb.Insert(2, 5, true) // write fault -> dirty
	dirty := tb.Evict(2, 99)
	if !dirty {
		t.Fatal("evict should report dirty")
	}
	p := tb.PTE(2)
	if p.Present() || p.Swap != 99 || p.Accessed() || p.Dirty() {
		t.Fatalf("post-evict PTE: %+v", p)
	}
	if tb.PresentPages() != 0 {
		t.Fatal("present count not decremented")
	}
	// Clean reinsert then evict: not dirty.
	tb.Insert(2, 6, false)
	if tb.Evict(2, 100) {
		t.Fatal("clean page reported dirty")
	}
}

func TestTestAndClearAccessed(t *testing.T) {
	tb := newMapped(1, 4)
	tb.Insert(0, 1, false)
	if !tb.TestAndClearAccessed(0) {
		t.Fatal("first clear should report set")
	}
	if tb.TestAndClearAccessed(0) {
		t.Fatal("second clear should report clear")
	}
	tb.Walk(0, false)
	if !tb.TestAndClearAccessed(0) {
		t.Fatal("walk should have re-set A bit")
	}
}

func TestRegionBookkeeping(t *testing.T) {
	tb := New(3)
	tb.MapRange(0, 3*PTEsPerRegion, false)
	tb.Insert(VPN(PTEsPerRegion+5), 1, false)
	tb.Insert(VPN(PTEsPerRegion+6), 2, false)
	if tb.RegionPresent(0) != 0 || tb.RegionPresent(1) != 2 || tb.RegionPresent(2) != 0 {
		t.Fatalf("region counts: %d %d %d", tb.RegionPresent(0), tb.RegionPresent(1), tb.RegionPresent(2))
	}
	tb.Evict(VPN(PTEsPerRegion+5), 0)
	if tb.RegionPresent(1) != 1 {
		t.Fatal("region count not decremented on evict")
	}
}

func TestRegionOfAndStart(t *testing.T) {
	tb := New(3)
	if tb.RegionOf(0) != 0 || tb.RegionOf(511) != 0 || tb.RegionOf(512) != 1 {
		t.Fatal("RegionOf wrong")
	}
	if tb.RegionStart(2) != 1024 {
		t.Fatal("RegionStart wrong")
	}
}

func TestCustomRegionSize(t *testing.T) {
	tb := NewWithRegionSize(4, 64)
	if tb.RegionPTEs() != 64 || tb.Pages() != 256 {
		t.Fatalf("perRegion=%d pages=%d", tb.RegionPTEs(), tb.Pages())
	}
	if tb.RegionOf(63) != 0 || tb.RegionOf(64) != 1 {
		t.Fatal("RegionOf wrong for custom size")
	}
	tb.MapRange(0, 256, false)
	tb.Insert(130, 1, false)
	if tb.RegionPresent(2) != 1 {
		t.Fatal("region present tracking wrong for custom size")
	}
	n := 0
	tb.ScanRegion(2, func(VPN, PTE) { n++ })
	if n != 64 {
		t.Fatalf("scan visited %d, want 64", n)
	}
}

// The bit planes give each region whole 64-bit words, so a fanout that
// is not a positive multiple of 64 is rejected at construction.
func TestRegionFanoutMustBeWordMultiple(t *testing.T) {
	for _, perRegion := range []int{0, -64, 8, 32, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithRegionSize(1, %d) did not panic", perRegion)
				}
			}()
			NewWithRegionSize(1, perRegion)
		}()
	}
}

func TestAccessedDensity(t *testing.T) {
	tb := New(1)
	tb.MapRange(0, PTEsPerRegion, false)
	for i := 0; i < 16; i++ {
		tb.Insert(VPN(i), mem.FrameID(i), false) // insert sets A
	}
	for i := 8; i < 16; i++ {
		tb.TestAndClearAccessed(VPN(i))
	}
	present, accessed := tb.AccessedDensity(0)
	if present != 16 || accessed != 8 {
		t.Fatalf("density = (%d, %d), want (16, 8)", present, accessed)
	}
}

func TestScanRegionVisitsAll(t *testing.T) {
	tb := New(2)
	tb.MapRange(0, 2*PTEsPerRegion, false)
	n := 0
	var first, last VPN
	tb.ScanRegion(1, func(vpn VPN, p PTE) {
		if n == 0 {
			first = vpn
		}
		last = vpn
		n++
	})
	if n != PTEsPerRegion || first != 512 || last != 1023 {
		t.Fatalf("scan visited %d [%d..%d]", n, first, last)
	}
}

func TestFileMapping(t *testing.T) {
	tb := New(1)
	tb.MapRange(0, 8, true)
	if !tb.PTE(0).File() {
		t.Fatal("file bit not set")
	}
	tb.MapRange(8, 8, false)
	if tb.PTE(8).File() {
		t.Fatal("anon page marked file")
	}
	if tb.MappedPages() != 16 {
		t.Fatalf("mapped = %d", tb.MappedPages())
	}
}

// Property: present counter equals the number of PTEs with the present bit
// after arbitrary insert/evict sequences, and A/D bits are always clear on
// non-present pages.
func TestPresenceInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(2)
		tb.MapRange(0, 2*PTEsPerRegion, false)
		resident := map[VPN]bool{}
		nextFrame := mem.FrameID(0)
		for _, op := range ops {
			vpn := VPN(op % (2 * PTEsPerRegion))
			if resident[vpn] {
				if op&0x8000 != 0 {
					tb.Evict(vpn, int32(op))
					resident[vpn] = false
				} else {
					tb.Walk(vpn, op&0x4000 != 0)
				}
			} else {
				tb.Insert(vpn, nextFrame, false)
				nextFrame++
				resident[vpn] = true
			}
		}
		count := 0
		for v := VPN(0); v < 2*PTEsPerRegion; v++ {
			p := tb.PTE(v)
			if p.Present() {
				count++
				if !resident[v] {
					return false
				}
			} else if p.Accessed() || p.Dirty() {
				return false
			}
		}
		return count == tb.PresentPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
