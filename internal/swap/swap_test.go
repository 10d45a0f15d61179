package swap

import (
	"testing"
	"testing/quick"

	"mglrusim/internal/sim"
	"mglrusim/internal/zram"
)

func TestAreaAllocFree(t *testing.T) {
	a := NewArea(4)
	seen := map[Slot]bool{}
	for i := 0; i < 4; i++ {
		s := a.Alloc()
		if s == NilSlot || seen[s] {
			t.Fatalf("bad slot %d", s)
		}
		seen[s] = true
	}
	if a.Alloc() != NilSlot {
		t.Fatal("exhausted area should return NilSlot")
	}
	if a.InUse() != 4 {
		t.Fatalf("in use = %d", a.InUse())
	}
	for s := range seen {
		a.Free(s)
	}
	if a.InUse() != 0 {
		t.Fatal("free accounting wrong")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestFreeGuards: Free used to silently accept double-frees and
// out-of-range slots, corrupting the free count. Both now panic, and
// Allocated exposes ownership for the auditor's cross-check.
func TestFreeGuards(t *testing.T) {
	a := NewArea(4)
	s := a.Alloc()
	if !a.Allocated(s) {
		t.Fatal("Allocated(live slot) = false")
	}
	a.Free(s)
	if a.Allocated(s) {
		t.Fatal("Allocated(freed slot) = true")
	}
	mustPanic(t, "double free", func() { a.Free(s) })
	mustPanic(t, "out-of-range free", func() { a.Free(Slot(99)) })
	mustPanic(t, "negative free", func() { a.Free(Slot(-1)) })
	if a.Allocated(Slot(99)) || a.Allocated(Slot(-1)) {
		t.Fatal("Allocated must be false out of range, not panic")
	}
	// The guard must not break legitimate reuse.
	s2 := a.Alloc()
	a.Free(s2)
	if a.InUse() != 0 {
		t.Fatalf("in use = %d after balanced alloc/free", a.InUse())
	}
}

// Property: alloc never double-hands-out a slot under random interleaving.
func TestAreaUniqueProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewArea(16)
		held := map[Slot]bool{}
		for _, alloc := range ops {
			if alloc {
				s := a.Alloc()
				if s == NilSlot {
					continue
				}
				if held[s] {
					return false
				}
				held[s] = true
			} else {
				for s := range held {
					delete(held, s)
					a.Free(s)
					break
				}
			}
		}
		return a.InUse() == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSSDReadBlocksForLatency(t *testing.T) {
	e := sim.NewEngine(2)
	cfg := SSDConfig{ReadLatency: 5 * sim.Millisecond, WriteLatency: 5 * sim.Millisecond, QueueDepth: 4, MaxDirtyWrites: 8}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var end sim.Time
	e.Spawn("reader", false, func(v *sim.Env) {
		d.ReadPage(v, 0, 1, 0)
		end = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(5*sim.Millisecond) {
		t.Fatalf("read completed at %v, want 5ms", end)
	}
	if d.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestSSDQueueDepthSerializes(t *testing.T) {
	e := sim.NewEngine(4)
	cfg := SSDConfig{ReadLatency: 10 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond, QueueDepth: 1, MaxDirtyWrites: 8}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		e.Spawn("reader", false, func(v *sim.Env) {
			d.ReadPage(v, 0, 1, 0)
			ends = append(ends, v.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// With depth 1, three reads complete at 10, 20, 30ms.
	want := []sim.Time{sim.Time(10 * sim.Millisecond), sim.Time(20 * sim.Millisecond), sim.Time(30 * sim.Millisecond)}
	if len(ends) != 3 {
		t.Fatalf("ends = %v", ends)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestSSDParallelQueueOverlaps(t *testing.T) {
	e := sim.NewEngine(4)
	cfg := SSDConfig{ReadLatency: 10 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond, QueueDepth: 3, MaxDirtyWrites: 8}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var latest sim.Time
	for i := 0; i < 3; i++ {
		e.Spawn("reader", false, func(v *sim.Env) {
			d.ReadPage(v, 0, 1, 0)
			if v.Now() > latest {
				latest = v.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if latest != sim.Time(10*sim.Millisecond) {
		t.Fatalf("parallel reads finished at %v, want 10ms", latest)
	}
}

func TestSSDWriteIsAsynchronous(t *testing.T) {
	e := sim.NewEngine(2)
	cfg := SSDConfig{ReadLatency: 10 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond, QueueDepth: 4, MaxDirtyWrites: 8}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var afterSubmit, afterDrain sim.Time
	e.Spawn("writer", false, func(v *sim.Env) {
		writePage(v, d, 0, 1, 0)
		afterSubmit = v.Now()
		d.Drain(v)
		afterDrain = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if afterSubmit != 0 {
		t.Fatalf("submit blocked until %v, want 0", afterSubmit)
	}
	if afterDrain != sim.Time(10*sim.Millisecond) {
		t.Fatalf("drain completed at %v, want 10ms", afterDrain)
	}
}

func TestSSDWriteBackpressure(t *testing.T) {
	e := sim.NewEngine(2)
	cfg := SSDConfig{ReadLatency: 10 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond, QueueDepth: 1, MaxDirtyWrites: 1}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var second sim.Time
	e.Spawn("writer", false, func(v *sim.Env) {
		writePage(v, d, 0, 1, 0) // fills the writeback window
		writePage(v, d, 1, 2, 0) // must wait for first completion
		second = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != sim.Time(10*sim.Millisecond) {
		t.Fatalf("second write submitted at %v, want 10ms", second)
	}
	if d.Stats().WriteStalls == 0 {
		t.Fatal("stall not recorded")
	}
}

func TestZRAMReadChargesCPU(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := ZRAMConfig{ReadLatency: 20 * sim.Microsecond, WriteLatency: 35 * sim.Microsecond, PageSize: 4096}
	d := NewZRAM(cfg, sim.NewRNG(1), nil)
	var cpu sim.Duration
	p := e.Spawn("reader", false, func(v *sim.Env) {
		d.ReadPage(v, 0, 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cpu = p.CPUTime()
	if cpu != 20*sim.Microsecond {
		t.Fatalf("cpu = %v, want 20µs (CPU-synchronous read)", cpu)
	}
}

func TestZRAMWriteStoresCompressed(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewZRAM(ZRAMConfig{ReadLatency: 20 * sim.Microsecond, WriteLatency: 35 * sim.Microsecond, PageSize: 4096}, sim.NewRNG(1),
		func(vpn int64) zram.ContentClass { return zram.ClassZeroHeavy })
	e.Spawn("writer", false, func(v *sim.Env) {
		writePage(v, d, 3, 100, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 1 || st.CompressedBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LifetimeCompressRatio < 5 {
		t.Fatalf("ratio = %v, want high for zero-heavy content", st.LifetimeCompressRatio)
	}
	d.FreeSlot(3)
	if d.Stats().CompressedBytes != 0 {
		t.Fatal("free did not release pool space")
	}
}

func TestZRAMContentionCouplesToCPU(t *testing.T) {
	// Two threads doing zram I/O on one CPU should take twice as long as
	// one thread — swap speed couples to CPU contention.
	run := func(threads int) sim.Time {
		e := sim.NewEngine(1)
		d := NewZRAM(ZRAMConfig{ReadLatency: 100 * sim.Microsecond, WriteLatency: 100 * sim.Microsecond, PageSize: 4096}, sim.NewRNG(1), nil)
		for i := 0; i < threads; i++ {
			e.Spawn("t", false, func(v *sim.Env) {
				for k := 0; k < 50; k++ {
					d.ReadPage(v, 0, 1, 0)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	one := run(1)
	two := run(2)
	if two < one*3/2 {
		t.Fatalf("contention not modeled: 1 thread %v, 2 threads %v", one, two)
	}
}

func TestSSDPrefetchDoesNotBlockOnQueue(t *testing.T) {
	e := sim.NewEngine(2)
	cfg := SSDConfig{ReadLatency: 10 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond, QueueDepth: 1, MaxDirtyWrites: 4}
	d := NewSSD(cfg, e, sim.NewRNG(1))
	var prefetchTime sim.Time
	e.Spawn("reader", false, func(v *sim.Env) {
		d.ReadPage(v, 0, 1, 0) // occupies the single queue slot
		before := v.Now()
		d.PrefetchPage(v, 1, 2, 0) // rides the cluster: near-free
		prefetchTime = v.Now() - before
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if prefetchTime > sim.Time(1*sim.Millisecond) {
		t.Fatalf("prefetch took %v, should be amortized", prefetchTime)
	}
	if d.Stats().Reads != 2 {
		t.Fatalf("reads = %d, want 2", d.Stats().Reads)
	}
}

func TestZRAMPrefetchPaysDecompressionCPU(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewZRAM(ZRAMConfig{ReadLatency: 20 * sim.Microsecond, WriteLatency: 35 * sim.Microsecond, PageSize: 4096}, sim.NewRNG(1), nil)
	p := e.Spawn("reader", false, func(v *sim.Env) {
		d.PrefetchPage(v, 0, 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.CPUTime() != 20*sim.Microsecond {
		t.Fatalf("cpu = %v, want full decompression cost", p.CPUTime())
	}
}

func TestSSDJitterVariesServiceTimes(t *testing.T) {
	e := sim.NewEngine(2)
	cfg := SSDConfig{ReadLatency: 5 * sim.Millisecond, WriteLatency: 5 * sim.Millisecond, Jitter: 0.4, QueueDepth: 64, MaxDirtyWrites: 64}
	d := NewSSD(cfg, e, sim.NewRNG(7))
	durations := map[sim.Time]bool{}
	e.Spawn("reader", false, func(v *sim.Env) {
		for i := 0; i < 20; i++ {
			start := v.Now()
			d.ReadPage(v, 0, 1, 0)
			durations[v.Now()-start] = true
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(durations) < 10 {
		t.Fatalf("jittered latencies too uniform: %d distinct", len(durations))
	}
}
