package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
)

// scanFileSpans is the derivation fileSpans replaced: maximal contiguous
// runs of file-backed VPNs in the laid-out table, one span per run.
func scanFileSpans(table *pagetable.Table) []pagecache.FileSpan {
	var spans []pagecache.FileSpan
	pages := table.Pages()
	for vpn := 0; vpn < pages; vpn++ {
		if !table.FileBacked(pagetable.VPN(vpn)) {
			continue
		}
		start := vpn
		for vpn < pages && table.FileBacked(pagetable.VPN(vpn)) {
			vpn++
		}
		spans = append(spans, pagecache.FileSpan{
			Name:  fmt.Sprintf("file-%d", len(spans)),
			Base:  pagetable.VPN(start),
			Pages: vpn - start,
		})
	}
	return spans
}

// TestFileSpansMatchTableScan checks, for every registered workload at the
// scaled and the kernel region fanout, that reading file spans off the
// segment list gives exactly what scanning the laid-out table gave, and
// that no two segments abut (so each file segment is one maximal run).
func TestFileSpansMatchTableScan(t *testing.T) {
	files := 0
	for _, fanout := range []int{64, 512} {
		for _, name := range experiments.WorkloadNames() {
			w := experiments.WorkloadByNameAt(name, 1, fanout).Make()
			table := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
			w.Layout(table)
			want := scanFileSpans(table)
			if got := core.FileSpans(w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at fanout %d: fileSpans = %+v, table scan = %+v", name, fanout, got, want)
			}
			files += len(want)
			segs := w.Segments()
			for i := 1; i < len(segs); i++ {
				if segs[i].Base <= segs[i-1].End() {
					t.Errorf("%s at fanout %d: segment %s [%d,%d) abuts or overlaps %s ending at %d",
						name, fanout, segs[i].Name, segs[i].Base, segs[i].End(), segs[i-1].Name, segs[i-1].End())
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("no registered workload maps a file segment")
	}
}
