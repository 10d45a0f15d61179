package workload

import (
	"mglrusim/internal/pagetable"
	"mglrusim/internal/zram"
)

// DefaultRegionPTEs is the page-table region fanout used by the scaled
// workloads. Real PMDs cover 512 PTEs; at ~1/1000 footprint scale, 64-PTE
// regions keep the region count (and with it the bloom-filter dynamics)
// proportional to the paper's systems.
const DefaultRegionPTEs = 64

// Segment is one mapped extent of a workload address space.
type Segment struct {
	Name  string
	Base  pagetable.VPN
	Pages int
	File  bool
	Class zram.ContentClass
}

// Contains reports whether vpn falls inside the segment.
func (s Segment) Contains(vpn pagetable.VPN) bool {
	return vpn >= s.Base && vpn < s.Base+pagetable.VPN(s.Pages)
}

// End returns the first VPN past the segment.
func (s Segment) End() pagetable.VPN { return s.Base + pagetable.VPN(s.Pages) }

// Page returns the i-th page of the segment.
func (s Segment) Page(i int) pagetable.VPN {
	if i < 0 || i >= s.Pages {
		panic("workload: segment page out of range")
	}
	return s.Base + pagetable.VPN(i)
}

// AddrSpace builds a segmented address-space layout with region-aligned
// segments separated by hole regions — the "mapped but unallocated
// regions" that make naive linear page-table scans wasteful (§III-B).
// Workloads embed it, so its methods are their workload.Workload layout
// methods.
type AddrSpace struct {
	regionPTEs int
	segs       []Segment
	next       pagetable.VPN
}

// NewAddrSpace starts a layout with the given region fanout.
func NewAddrSpace(regionPTEs int) *AddrSpace {
	if regionPTEs <= 0 {
		regionPTEs = DefaultRegionPTEs
	}
	return &AddrSpace{regionPTEs: regionPTEs}
}

// Add appends a segment of pages pages, aligned to a region boundary and
// preceded by at least one hole region, so no two segments abut.
func (a *AddrSpace) Add(name string, pages int, file bool, class zram.ContentClass) Segment {
	if pages <= 0 {
		panic("workload: segment needs pages")
	}
	r := pagetable.VPN(a.regionPTEs)
	// Leave a hole region, then align.
	base := ((a.next + r) + r - 1) / r * r
	seg := Segment{Name: name, Base: base, Pages: pages, File: file, Class: class}
	a.segs = append(a.segs, seg)
	a.next = seg.End()
	return seg
}

// RegionPTEs reports the region fanout.
func (a *AddrSpace) RegionPTEs() int { return a.regionPTEs }

// TableRegions reports how many regions the whole span needs.
func (a *AddrSpace) TableRegions() int {
	r := pagetable.VPN(a.regionPTEs)
	return int((a.next + r - 1) / r)
}

// FootprintPages reports the total mapped pages.
func (a *AddrSpace) FootprintPages() int {
	n := 0
	for _, s := range a.segs {
		n += s.Pages
	}
	return n
}

// Layout installs all segments into t.
func (a *AddrSpace) Layout(t *pagetable.Table) {
	for _, s := range a.segs {
		t.MapRange(s.Base, s.Pages, s.File)
	}
}

// ContentClass reports the content class for vpn (defaulting to
// structured for holes, which are never swapped anyway).
func (a *AddrSpace) ContentClass(vpn int64) zram.ContentClass {
	for _, s := range a.segs {
		if s.Contains(pagetable.VPN(vpn)) {
			return s.Class
		}
	}
	return zram.ClassStructured
}

// Segments lists the mapped segments in address order.
func (a *AddrSpace) Segments() []Segment { return a.segs }
