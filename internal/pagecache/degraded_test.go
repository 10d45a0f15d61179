package pagecache_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// TestCacheStatsAddComplete: the series aggregators in the experiment
// harness sum pagecache.Stats with Add; a field missing from Add reads
// as a permanent zero in every figure. Reflection fills each field with
// a distinct value and checks the round trip.
func TestCacheStatsAddComplete(t *testing.T) {
	var filled pagecache.Stats
	rv := reflect.ValueOf(&filled).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int64: // sim.Duration
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats.%s has kind %v; teach this test to fill it",
				rv.Type().Field(i).Name, f.Kind())
		}
	}
	var sum pagecache.Stats
	sum.Add(filled)
	if sum != filled {
		for i := 0; i < rv.NumField(); i++ {
			name := rv.Type().Field(i).Name
			got := reflect.ValueOf(sum).Field(i).Interface()
			want := rv.Field(i).Interface()
			if got != want {
				t.Errorf("Stats.Add drops %s: got %v, want %v", name, got, want)
			}
		}
	}
	sum.Add(filled)
	if sum == filled {
		t.Fatal("second Add did not accumulate")
	}
}

// flakyDevice is a scripted swap.Device: reads/writes/prefetches fail
// by slot membership in the fail sets, with a fixed latency charge so
// tests stay deterministic without a real device model underneath.
type flakyDevice struct {
	failReads    map[swap.Slot]bool
	failWrites   map[swap.Slot]bool
	failPrefetch map[swap.Slot]bool
	panicWrites  map[swap.Slot]bool
	lat          sim.Duration
	stats        swap.Stats
}

func newFlaky() *flakyDevice {
	return &flakyDevice{
		failReads:    map[swap.Slot]bool{},
		failWrites:   map[swap.Slot]bool{},
		failPrefetch: map[swap.Slot]bool{},
		panicWrites:  map[swap.Slot]bool{},
		lat:          50 * sim.Microsecond,
	}
}

func (d *flakyDevice) Name() string { return "flaky" }

func (d *flakyDevice) ReadPage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	d.stats.Reads++
	v.Sleep(d.lat)
	if d.failReads[slot] {
		return fmt.Errorf("flaky: scripted read error on slot %d", slot)
	}
	return nil
}

func (d *flakyDevice) WriteStep(v *sim.Env, w *swap.WriteWalk) bool {
	if w.At == 0 {
		if d.panicWrites[w.Slot] {
			panic(fmt.Errorf("flaky: scripted write panic on slot %d", w.Slot))
		}
		d.stats.Writes++
		w.At = 1
		if !v.TrySleepUntil(v.Now() + sim.Time(d.lat)) {
			return true
		}
	}
	if d.failWrites[w.Slot] {
		w.Err = fmt.Errorf("flaky: scripted write error on slot %d", w.Slot)
	}
	return false
}

func (d *flakyDevice) PrefetchPage(v *sim.Env, slot swap.Slot, vpn int64, version uint32) error {
	d.stats.Reads++
	v.Sleep(d.lat)
	if d.failPrefetch[slot] {
		return fmt.Errorf("flaky: scripted prefetch error on slot %d", slot)
	}
	return nil
}

func (d *flakyDevice) FreeSlot(slot swap.Slot) {}
func (d *flakyDevice) Drain(v *sim.Env)        {}
func (d *flakyDevice) Stats() swap.Stats       { return d.stats }

var _ swap.Device = (*flakyDevice)(nil)

// flakyHarness builds a cache over the flaky device: 256 file pages in
// two spans, 100-frame memory.
func flakyHarness(t *testing.T, cfg pagecache.Config) (*harness, *flakyDevice) {
	t.Helper()
	eng := sim.NewEngine(4)
	table := pagetable.New(4)
	table.MapRange(0, 256, true)
	memry := mem.New(100)
	dev := newFlaky()
	c := pagecache.New(cfg, eng, table, memry, dev, []pagecache.FileSpan{
		{Name: "objects", Base: 0, Pages: 200},
		{Name: "index", Base: 200, Pages: 56},
	})
	return &harness{eng: eng, table: table, memry: memry, cache: c}, dev
}

// TestReadErrorPoisonsPage: a failed demand read poisons the page —
// the fault reports failure, later lookups see the poison, and repeat
// faults are accounted without touching the device again.
func TestReadErrorPoisonsPage(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h, dev := flakyHarness(t, cfg)
	dev.failReads[7] = true
	h.run(t, func(v *sim.Env) {
		if h.cache.ReadPage(v, 6) != true {
			t.Error("healthy slot failed")
		}
		if h.cache.ReadPage(v, 7) {
			t.Error("scripted read error did not surface")
		}
		if !h.cache.Poisoned(7) || h.cache.Poisoned(6) {
			t.Errorf("poison state wrong: 7=%v 6=%v", h.cache.Poisoned(7), h.cache.Poisoned(6))
		}
		if h.cache.PoisonedPages() != 1 {
			t.Errorf("PoisonedPages = %d, want 1", h.cache.PoisonedPages())
		}
		reads := dev.stats.Reads
		h.cache.NotePoisonedFault() // what vmm does on the fast path
		if dev.stats.Reads != reads {
			t.Error("poisoned fault touched the device")
		}
	})
	st := h.cache.Stats()
	if st.FileIOErrors != 1 || st.PoisonedFaults != 1 {
		t.Fatalf("stats = %+v, want FileIOErrors=1 PoisonedFaults=1", st)
	}
}

// TestWriteErrorLedger: failed writebacks advance the owning file's
// errseq ledger, count data-at-risk, and leave the page clean so the
// dirty set still drains — the kernel's lost-writeback semantics.
func TestWriteErrorLedger(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h, dev := flakyHarness(t, cfg)
	dev.failWrites[3] = true   // file "objects"
	dev.failWrites[201] = true // file "index" (slot 201 = vpn 201)
	h.run(t, func(v *sim.Env) {
		for _, vpn := range []pagetable.VPN{2, 3, 4, 201} {
			h.cache.MarkDirty(vpn)
		}
		h.cache.FlushAll(v)
		if d := h.cache.DirtyPages(); d != 0 {
			t.Errorf("dirty set after erroring flush = %d, want 0 (errors must not wedge writeback)", d)
		}
	})
	st := h.cache.Stats()
	if st.WriteErrors != 2 || st.DataAtRisk != 2 {
		t.Fatalf("stats = %+v, want WriteErrors=2 DataAtRisk=2", st)
	}
	ledger := h.cache.ErrorLedger()
	if len(ledger) != 2 {
		t.Fatalf("ledger has %d files, want 2", len(ledger))
	}
	if ledger[0].Name != "objects" || ledger[0].ErrSeq != 1 || ledger[0].DataAtRisk != 1 {
		t.Errorf("objects ledger = %+v, want ErrSeq=1 DataAtRisk=1", ledger[0])
	}
	if ledger[1].Name != "index" || ledger[1].ErrSeq != 1 || ledger[1].DataAtRisk != 1 {
		t.Errorf("index ledger = %+v, want ErrSeq=1 DataAtRisk=1", ledger[1])
	}
}

// TestPageOutError: an eviction-time writeback failure lands in the same
// ledger instead of failing reclaim.
func TestPageOutError(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h, dev := flakyHarness(t, cfg)
	dev.failWrites[9] = true
	dev.failWrites[10] = true
	h.run(t, func(v *sim.Env) {
		// The page-out step an eviction carries.
		for _, vpn := range []pagetable.VPN{9, 10} {
			w := h.cache.BeginPageOut(vpn)
			if h.cache.PageOutStep(v, &w) {
				v.Suspend(func() bool { return h.cache.PageOutStep(v, &w) })
			}
		}
	})
	st := h.cache.Stats()
	if st.PageOuts != 2 || st.WriteErrors != 2 || st.DataAtRisk != 2 {
		t.Fatalf("stats = %+v, want PageOuts=2 WriteErrors=2 DataAtRisk=2", st)
	}
}

// TestHardDirtyThrottle: with the hard ratio set, a writer dirtying new
// pages past the wall stalls in ThrottleWriter until the flusher's
// collection drains the dirty set, and the stall is accounted. This is
// the unit-level proof of the vm.dirty_ratio analogue — at figure scale
// the serve workload's dirty production stays far below the wall, so the
// ext3 throttle column is expected ~0 there.
func TestHardDirtyThrottle(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.DirtyRatio = 0.10     // background trigger: 10 pages
	cfg.DirtyHardRatio = 0.20 // hard wall: 20 pages
	cfg.FlushInterval = 100 * sim.Millisecond
	h, _ := flakyHarness(t, cfg)
	if h.cache.HardDirtyThreshold() != 20 {
		t.Fatalf("HardDirtyThreshold = %d, want 20", h.cache.HardDirtyThreshold())
	}
	h.run(t, func(v *sim.Env) {
		// Dirty straight through the wall before the flusher's first poll
		// tick (25 ms) can run a pass.
		for vpn := pagetable.VPN(0); vpn < 20; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		if !h.cache.OverHardLimit() {
			t.Fatal("20 dirty pages should sit at the wall")
		}
		// page_mkwrite semantics: a new page throttles, an already-dirty
		// page writes freely.
		if !h.cache.NeedsWriteThrottle(30) {
			t.Error("clean page over the wall must throttle")
		}
		if h.cache.NeedsWriteThrottle(5) {
			t.Error("already-dirty page must not throttle")
		}
		before := v.Now()
		h.cache.ThrottleWriter(v)
		if v.Now() == before {
			t.Error("ThrottleWriter returned without stalling over the wall")
		}
		if h.cache.OverHardLimit() {
			t.Error("writer released while still over the wall")
		}
		if h.cache.NeedsWriteThrottle(30) {
			t.Error("drained dirty set must not throttle")
		}
	})
	st := h.cache.Stats()
	if st.ThrottleStalls != 1 || st.ThrottleStallTime == 0 {
		t.Fatalf("stats = %+v, want one accounted stall", st)
	}
	if st.FlushPasses == 0 {
		t.Fatal("nothing flushed; the stall cannot have ended legitimately")
	}
}

// TestHardThrottleClampsAboveBackground: a hard ratio at or below the
// background ratio would throttle writers before the flusher wakes;
// New must clamp it above the background threshold.
func TestHardThrottleClampsAboveBackground(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.DirtyRatio = 0.10
	cfg.DirtyHardRatio = 0.05 // nonsense: below background
	h, _ := flakyHarness(t, cfg)
	if got, bg := h.cache.HardDirtyThreshold(), h.cache.DirtyThreshold(); got <= bg {
		t.Fatalf("hard threshold %d not clamped above background %d", got, bg)
	}
}

// TestThrottleOffByDefault: DefaultConfig leaves the hard wall down —
// NeedsWriteThrottle must be constant-false however dirty the cache
// gets, preserving historical behaviour byte-for-byte.
func TestThrottleOffByDefault(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h, _ := flakyHarness(t, cfg)
	if h.cache.HardDirtyThreshold() != 0 {
		t.Fatalf("DefaultConfig set a hard threshold: %d", h.cache.HardDirtyThreshold())
	}
	for vpn := pagetable.VPN(0); vpn < 256; vpn++ {
		h.cache.MarkDirty(vpn)
	}
	if h.cache.OverHardLimit() || h.cache.NeedsWriteThrottle(0) {
		t.Fatal("hard throttle engaged with DirtyHardRatio unset")
	}
}

// TestFlusherPanicClassified: a panic unwinding the flusher daemon must
// surface as a *FlusherError carrying the dirty-page count, with the
// original cause still reachable through the unwrap chain — that is what
// the experiment harness' retry classifier keys on.
func TestFlusherPanicClassified(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.FlushInterval = 10 * sim.Millisecond // poll tick: 2.5 ms
	h, dev := flakyHarness(t, cfg)
	// The flusher collects (and cleans) the whole dirty set host-side
	// before issuing device writes, so a panic on the first write would
	// see zero pages dirty. Panic on slot 40 — 2 ms into the pass at
	// 50 µs per write — after the writer has re-dirtied fresh pages, so
	// the error carries a live dirty-set snapshot.
	dev.panicWrites[40] = true
	h.eng.Spawn("writer", false, func(v *sim.Env) {
		for vpn := pagetable.VPN(0); vpn < 64; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		v.Sleep(3 * sim.Millisecond) // flusher pass is now mid-write
		for vpn := pagetable.VPN(100); vpn < 120; vpn++ {
			h.cache.MarkDirty(vpn)
		}
		v.Sleep(50 * sim.Millisecond) // let the flusher trip the panic
	})
	err := h.eng.Run()
	if err == nil {
		t.Fatal("flusher panic did not fail the run")
	}
	var fe *pagecache.FlusherError
	if !errors.As(err, &fe) {
		t.Fatalf("run error is not a *FlusherError: %v", err)
	}
	if fe.DirtyPages == 0 {
		t.Errorf("FlusherError lost the dirty-set context: %+v", fe)
	}
	if fe.Unwrap() == nil {
		t.Error("FlusherError lost its cause")
	}
}

// TestReadaheadAbandonAccounting: AbandonResident reverses NoteResident
// and counts the abort.
func TestReadaheadAbandonAccounting(t *testing.T) {
	cfg := pagecache.DefaultConfig()
	cfg.Enabled = false
	h, _ := flakyHarness(t, cfg)
	h.cache.NoteResident(11, false)
	h.cache.NoteResident(12, false)
	h.cache.AbandonResident(12)
	if got := h.cache.ResidentFilePages(); got != 1 {
		t.Fatalf("ResidentFilePages = %d, want 1", got)
	}
	if got := h.cache.Stats().ReadaheadAborts; got != 1 {
		t.Fatalf("ReadaheadAborts = %d, want 1", got)
	}
}
