package pagecache_test

import (
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/vmm"
)

// harness bundles one cache over a 256-page file mapping backed by a
// 100-frame memory (dirty threshold 10 at the default 10% ratio).
type harness struct {
	eng   *sim.Engine
	table *pagetable.Table
	memry *mem.Memory
	cache *pagecache.Cache
}

func newHarness(t *testing.T, cfg pagecache.Config) *harness {
	t.Helper()
	eng := sim.NewEngine(4)
	table := pagetable.New(4) // 4 regions × 64 PTEs = 256 pages
	table.MapRange(0, 256, true)
	memry := mem.New(100)
	dev := swap.NewSSD(swap.DefaultSSDConfig(), eng, sim.NewRNG(7))
	c := pagecache.New(cfg, eng, table, memry, dev,
		[]pagecache.FileSpan{{Name: "objects", Base: 0, Pages: 256}})
	return &harness{eng: eng, table: table, memry: memry, cache: c}
}

// run drives fn as the only non-daemon proc and runs the engine to
// completion.
func (h *harness) run(t *testing.T, fn func(v *sim.Env)) {
	t.Helper()
	h.eng.Spawn("driver", false, fn)
	if err := h.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestSlotTranslationAcrossSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	table := pagetable.New(8)
	table.MapRange(0, 100, true)
	table.MapRange(300, 50, true)
	memry := mem.New(64)
	dev := swap.NewSSD(swap.DefaultSSDConfig(), eng, sim.NewRNG(1))
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	c := pagecache.New(cfg, eng, table, memry, dev, []pagecache.FileSpan{
		{Name: "b", Base: 300, Pages: 50},
		{Name: "a", Base: 0, Pages: 100},
	})
	if c.FilePages() != 150 {
		t.Fatalf("FilePages = %d, want 150", c.FilePages())
	}
	// Slots are dense and VPN-ordered: file offsets adjacent in a file
	// stay adjacent on the device even across the VA hole.
	if s, ok := c.SlotOf(0); !ok || s != 0 {
		t.Fatalf("SlotOf(0) = %d,%v", s, ok)
	}
	if s, ok := c.SlotOf(99); !ok || s != 99 {
		t.Fatalf("SlotOf(99) = %d,%v", s, ok)
	}
	if s, ok := c.SlotOf(300); !ok || s != 100 {
		t.Fatalf("SlotOf(300) = %d,%v", s, ok)
	}
	if s, ok := c.SlotOf(349); !ok || s != 149 {
		t.Fatalf("SlotOf(349) = %d,%v", s, ok)
	}
	// VPNs in the hole or past the end are not file pages.
	if _, ok := c.SlotOf(150); ok {
		t.Fatal("SlotOf(150) should miss: hole between spans")
	}
	if _, ok := c.SlotOf(350); ok {
		t.Fatal("SlotOf(350) should miss: past the last span")
	}
}

func TestOverlappingSpansPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on overlapping file spans")
		}
	}()
	eng := sim.NewEngine(1)
	table := pagetable.New(4)
	memry := mem.New(16)
	dev := swap.NewSSD(swap.DefaultSSDConfig(), eng, sim.NewRNG(1))
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	pagecache.New(cfg, eng, table, memry, dev, []pagecache.FileSpan{
		{Name: "a", Base: 0, Pages: 10},
		{Name: "b", Base: 5, Pages: 10},
	})
}

func TestMarkDirtyIdempotent(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h := newHarness(t, cfg)
	if !h.cache.MarkDirty(3) {
		t.Fatal("first MarkDirty should transition clean→dirty")
	}
	if h.cache.MarkDirty(3) {
		t.Fatal("second MarkDirty should be a no-op")
	}
	if got := h.cache.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages = %d, want 1", got)
	}
	if got := h.cache.Stats().Dirtied; got != 1 {
		t.Fatalf("Stats.Dirtied = %d, want 1", got)
	}
}

// The ratio trigger: below threshold and before the interval, nothing is
// written; crossing the threshold starts a pass at the next poll tick.
func TestDirtyRatioTriggersFlush(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.FlushInterval = 100 * sim.Millisecond // poll tick = 25 ms
	h := newHarness(t, cfg)
	if got := h.cache.DirtyThreshold(); got != 10 {
		t.Fatalf("DirtyThreshold = %d, want 10 (10%% of 100 frames)", got)
	}
	h.run(t, func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 9; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		v.Sleep(30 * sim.Millisecond) // one poll tick passes
		if wb := h.cache.Stats().WritebackPages; wb != 0 {
			t.Errorf("below threshold before the interval: %d pages written, want 0", wb)
		}
		h.cache.MarkDirty(9) // crosses the threshold
		v.Sleep(30 * sim.Millisecond)
		if wb := h.cache.Stats().WritebackPages; wb != 10 {
			t.Errorf("after crossing threshold: %d pages written, want 10", wb)
		}
		if d := h.cache.DirtyPages(); d != 0 {
			t.Errorf("dirty set after flush = %d, want 0", d)
		}
	})
}

// Age-based writeback: a single dirty page far below the ratio threshold
// is still written once a full interval elapses.
func TestPeriodicFlushBelowThreshold(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.FlushInterval = 100 * sim.Millisecond
	h := newHarness(t, cfg)
	h.run(t, func(v *sim.Env) {
		h.cache.MarkDirty(42)
		v.Sleep(130 * sim.Millisecond)
		if wb := h.cache.Stats().WritebackPages; wb != 1 {
			t.Errorf("periodic flush wrote %d pages, want 1", wb)
		}
	})
}

// Contiguous dirty runs batch into extents capped at MaxExtent; disjoint
// runs become separate extents.
func TestExtentBatching(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false // drive flushing explicitly
	cfg.MaxExtent = 16
	h := newHarness(t, cfg)
	h.run(t, func(v *sim.Env) {
		// One 40-page run (splits 16+16+8) and one isolated page.
		for vpn := pagetable.VPN(0); vpn < 40; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		h.cache.MarkDirty(200)
		h.cache.FlushAll(v)
		st := h.cache.Stats()
		if st.Extents != 4 {
			t.Errorf("Extents = %d, want 4 (16+16+8 + isolated)", st.Extents)
		}
		if st.WritebackPages != 41 {
			t.Errorf("WritebackPages = %d, want 41", st.WritebackPages)
		}
		if st.FlushPasses != 1 {
			t.Errorf("FlushPasses = %d, want 1", st.FlushPasses)
		}
	})
}

// FlushAll leaves no dirty page behind and drains the device: the
// flush-on-drain contract.
func TestFlushOnDrain(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h := newHarness(t, cfg)
	h.run(t, func(v *sim.Env) {
		for vpn := pagetable.VPN(10); vpn < 30; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		h.cache.FlushAll(v)
		if d := h.cache.DirtyPages(); d != 0 {
			t.Errorf("DirtyPages after FlushAll = %d, want 0", d)
		}
		if w := h.cache.DeviceStats().Writes; w != 20 {
			t.Errorf("device writes = %d, want 20", w)
		}
	})
}

// Writeback marks the PTE clean (page_mkclean): a later eviction of a
// flushed page must not see it dirty again.
func TestFlushClearsPTEDirty(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h := newHarness(t, cfg)
	h.run(t, func(v *sim.Env) {
		f := h.memry.Alloc()
		h.table.Insert(7, f, true) // write fault: PTE dirty
		h.cache.MarkDirty(7)
		h.cache.FlushAll(v)
		if dirty := h.table.Evict(7, pagetable.NilSwap); dirty {
			t.Error("evict after flush reports dirty; writeback should have cleaned the PTE")
		}
	})
}

// TestShadowLifecycle follows a file page's shadow entry through the
// vmm's store, which holds it, and the cache, which accounts it: an
// eviction records it, the refault takes it, a second take finds none.
func TestShadowLifecycle(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h := newHarness(t, cfg)
	shadows := vmm.NewShadows(h.table.Pages())
	if sh := shadows.Take(5); sh != nil {
		t.Fatal("Take on a never-evicted page should be nil")
	}
	h.cache.NoteResident(5, false)
	shadows.Record(5, policy.Shadow{Gen: 1})
	shadows.Record(5, policy.Shadow{Gen: 3, Tier: 2}) // replaces the first
	h.cache.RecordEviction(5)
	if !shadows.Has(5) || shadows.Len() != 1 {
		t.Fatalf("shadow not recorded: has=%v count=%d", shadows.Has(5), shadows.Len())
	}
	sh := shadows.Take(5)
	if sh == nil || sh.Gen != 3 || sh.Tier != 2 {
		t.Fatalf("Take = %+v, want Gen 3 Tier 2", sh)
	}
	h.cache.NoteResident(5, true)
	h.cache.NoteRefault()
	if shadows.Has(5) || shadows.Len() != 0 {
		t.Fatal("shadow should be consumed")
	}
	if shadows.Take(5) != nil {
		t.Fatal("second Take should be nil")
	}
	st := h.cache.Stats()
	if st.Evictions != 1 || st.Refaults != 1 {
		t.Fatalf("Evictions=%d Refaults=%d, want 1/1", st.Evictions, st.Refaults)
	}
	if got := h.cache.ResidentFilePages(); got != 1 {
		t.Fatalf("ResidentFilePages = %d, want 1", got)
	}
}
