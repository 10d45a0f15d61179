package vmm

import (
	"errors"
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// newOOMRig is newRig with a capped swap area (and optional audit), so
// swap-area exhaustion is reachable.
func newOOMRig(frames, mappedPages, swapSlots int, audit bool, seed uint64) *rig {
	eng := sim.NewEngine(4)
	rng := sim.NewRNG(seed)
	memory := mem.New(frames)
	regions := (mappedPages + pagetable.PTEsPerRegion - 1) / pagetable.PTEsPerRegion
	table := pagetable.New(regions)
	table.MapRange(0, mappedPages, false)
	dev := swap.NewSSD(swap.SSDConfig{
		ReadLatency: 100 * sim.Microsecond, WriteLatency: 100 * sim.Microsecond,
		QueueDepth: 8, MaxDirtyWrites: 32,
	}, eng, rng.Stream(1))
	cfg := DefaultConfig()
	cfg.SwapSlots = swapSlots
	cfg.Audit = audit
	mgr := New(cfg, eng, memory, table, dev, clock.New(clock.DefaultConfig()), rng.Stream(2))
	return &rig{eng: eng, m: mgr, mem: memory}
}

// TestSwapExhaustionTriggersOOM: 16 frames, a 64-page dirty working set,
// and only 24 swap slots — reclaim must exhaust the area, and the OOM
// model must reap rather than wedge. The run completes, kills are
// counted, and frame accounting survives.
func TestSwapExhaustionTriggersOOM(t *testing.T) {
	r := newOOMRig(16, 64, 24, false, 1)
	r.run(t, func(v *sim.Env) {
		for pass := 0; pass < 4; pass++ {
			for vpn := pagetable.VPN(0); vpn < 64; vpn++ {
				r.m.Touch(v, vpn, true) // dirty: every eviction needs a slot
			}
		}
	})
	c := r.m.Counters()
	if c.OOMKills == 0 {
		t.Fatal("24 slots absorbed a 64-page dirty working set without an OOM kill")
	}
	if c.OOMReapedSlots == 0 {
		t.Fatal("kills recorded but no slots reaped")
	}
	if r.m.ResidentPages() > 16 {
		t.Fatalf("resident %d exceeds memory", r.m.ResidentPages())
	}
	if used := r.mem.UsedPages(); used != r.m.ResidentPages() {
		t.Fatalf("frame accounting mismatch after reaps: used=%d resident=%d", used, r.m.ResidentPages())
	}
}

// TestOOMVictimSelection: the victim must be the region with the highest
// badness (resident + swapped), not the faulting one. Region 0 is touched
// heavily, region 1 lightly; a direct kill must reap region 0 and leave
// region 1's swap copies alone.
func TestOOMVictimSelection(t *testing.T) {
	pages := pagetable.PTEsPerRegion + 64 // region 0 full, region 1 has 64 pages
	r := newOOMRig(64, pages, 0, false, 2)
	r.run(t, func(v *sim.Env) {
		for pass := 0; pass < 2; pass++ {
			for vpn := pagetable.VPN(0); vpn < pagetable.VPN(pages); vpn++ {
				r.m.Touch(v, vpn, true)
			}
		}
		swapped := func(region int) int {
			return r.m.table.RegionSwapped(region)
		}
		before0, before1 := swapped(0), swapped(1)
		if before0 == 0 || before1 == 0 {
			t.Fatalf("setup failed to swap both regions: %d, %d", before0, before1)
		}

		r.m.oomKill(v, pagetable.VPN(pagetable.PTEsPerRegion)) // faulting page lives in region 1
		if got := r.m.Counters().OOMKills; got != 1 {
			t.Fatalf("kills = %d, want 1", got)
		}
		if got := swapped(0); got != 0 {
			t.Fatalf("victim region 0 still holds %d swap copies", got)
		}
		if got := swapped(1); got != before1 {
			t.Fatalf("non-victim region 1 lost swap copies: %d -> %d", before1, got)
		}
		if got := r.m.Counters().OOMReapedSlots; got != uint64(before0) {
			t.Fatalf("reaped %d slots, victim held %d", got, before0)
		}
	})
}

// TestOOMReapSurvivesAudit runs the exhaustion scenario with the
// invariant auditor on: the reaper's bookkeeping (freed slots, cleared
// PTEs, dropped shadows, auditor notification) must leave no dangling
// eviction records or ownership mismatches.
func TestOOMReapSurvivesAudit(t *testing.T) {
	r := newOOMRig(16, 64, 24, true, 3)
	r.run(t, func(v *sim.Env) {
		for pass := 0; pass < 4; pass++ {
			for vpn := pagetable.VPN(0); vpn < 64; vpn++ {
				r.m.Touch(v, vpn, true)
			}
		}
	})
	if r.m.Counters().OOMKills == 0 {
		t.Fatal("scenario did not exercise the OOM path")
	}
	if err := r.m.AuditErr(); err != nil {
		t.Fatalf("audited OOM run flagged: %v", err)
	}
}

// TestOOMErrorWhenNothingReapable: a degenerate area too small for even
// one region's working set still makes progress while pages are
// reapable, and panics a typed, retry-classifiable *OOMError only when
// the reaper genuinely finds no victim.
func TestOOMErrorWhenNothingReapable(t *testing.T) {
	eng := sim.NewEngine(4)
	rng := sim.NewRNG(4)
	memory := mem.New(4)
	table := pagetable.New(1)
	table.MapRange(0, 16, false)
	dev := swap.NewSSD(swap.SSDConfig{
		ReadLatency: 100 * sim.Microsecond, WriteLatency: 100 * sim.Microsecond,
		QueueDepth: 8, MaxDirtyWrites: 32,
	}, eng, rng.Stream(1))
	cfg := DefaultConfig()
	cfg.ReadaheadWindow = 0
	mgr := New(cfg, eng, memory, table, dev, clock.New(clock.DefaultConfig()), rng.Stream(2))

	eng.Spawn("app", false, func(v *sim.Env) {
		// With no swapped pages anywhere, exhaustion has no victim: force
		// the direct path.
		mgr.oomKill(v, 0)
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("expected OOMError")
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("error chain lost the typed cause: %v", err)
	}
}
