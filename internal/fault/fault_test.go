package fault

import (
	"errors"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

func ssdCfg() swap.SSDConfig {
	return swap.SSDConfig{
		ReadLatency: 1 * sim.Millisecond, WriteLatency: 1 * sim.Millisecond,
		QueueDepth: 8, MaxDirtyWrites: 32,
	}
}

// stormScenario wraps an SSD in a storm plan and issues reads spread over
// virtual time, returning every completion instant and the injected
// stats — the full observable behaviour of one run.
func stormScenario(t *testing.T, seed uint64, plan Plan) ([]sim.Time, Stats) {
	t.Helper()
	e := sim.NewEngine(2)
	rng := sim.NewRNG(seed)
	d := Wrap(swap.NewSSD(ssdCfg(), e, rng.Stream(1)), plan, nil, rng.Stream(2))
	var ends []sim.Time
	e.Spawn("reader", false, func(v *sim.Env) {
		for i := 0; i < 200; i++ {
			d.ReadPage(v, swap.Slot(i%8), int64(i), 0)
			ends = append(ends, v.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return ends, d.FaultStats()
}

// TestStormDeterminism: same seed + same plan ⇒ byte-identical timing and
// injection counters. This is the fault plane's core contract.
func TestStormDeterminism(t *testing.T) {
	plan := Plan{Storms: StormConfig{
		Rate: 20, MeanDuration: 20 * sim.Millisecond,
		ExtraLatency: 3 * sim.Millisecond, Jitter: 0.4, StallProb: 0.3,
	}}
	endsA, statsA := stormScenario(t, 0x5EED, plan)
	endsB, statsB := stormScenario(t, 0x5EED, plan)
	if statsA != statsB {
		t.Fatalf("stats diverge across same-seed runs:\n%+v\n%+v", statsA, statsB)
	}
	if statsA.Storms == 0 {
		t.Fatal("scenario injected no storms; test is vacuous")
	}
	for i := range endsA {
		if endsA[i] != endsB[i] {
			t.Fatalf("read %d completed at %v vs %v across same-seed runs", i, endsA[i], endsB[i])
		}
	}
	// A different seed must produce a different schedule.
	endsC, _ := stormScenario(t, 0xC0FFEE, plan)
	same := true
	for i := range endsA {
		if endsA[i] != endsC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical storm schedules")
	}
}

// TestStormInjectsLatency: with storms raging continuously, reads must be
// slower than on the clean device, and the delay must be accounted.
func TestStormInjectsLatency(t *testing.T) {
	clean, _ := stormScenario(t, 1, Plan{})
	stormy, stats := stormScenario(t, 1, Plan{Storms: StormConfig{
		Rate: 100, MeanDuration: 50 * sim.Millisecond, ExtraLatency: 2 * sim.Millisecond,
	}})
	if stats.Storms == 0 || stats.StormDelay == 0 {
		t.Fatalf("no storms injected: %+v", stats)
	}
	if stormy[len(stormy)-1] <= clean[len(clean)-1] {
		t.Fatalf("storms did not slow the run: %v vs clean %v", stormy[len(stormy)-1], clean[len(clean)-1])
	}
}

// TestStallStormBlocksDevice: StallProb 1 makes every storm a full stall;
// an I/O issued inside one must block until the storm window ends.
func TestStallStormBlocksDevice(t *testing.T) {
	_, stats := stormScenario(t, 2, Plan{Storms: StormConfig{
		Rate: 50, MeanDuration: 30 * sim.Millisecond, ExtraLatency: 1 * sim.Millisecond, StallProb: 1,
	}})
	if stats.StallStorms == 0 {
		t.Fatal("no stall storms despite StallProb=1")
	}
	if stats.StallStorms != stats.Storms {
		t.Fatalf("StallProb=1 but only %d/%d storms stalled", stats.StallStorms, stats.Storms)
	}
	if stats.StormDelay == 0 {
		t.Fatal("stalls injected no delay")
	}
}

// TestTransientReadErrorsRetry: a moderate error rate with a generous
// retry budget is absorbed — retries happen, no hard failure, the run
// completes.
func TestTransientReadErrorsRetry(t *testing.T) {
	_, stats := stormScenario(t, 3, Plan{ReadErrors: ReadErrorConfig{
		Prob: 0.2, MaxRetries: 50, Backoff: 100 * sim.Microsecond,
	}})
	if stats.TransientReadErrors == 0 || stats.ReadRetries == 0 {
		t.Fatalf("no transient errors injected: %+v", stats)
	}
	if stats.HardReadErrors != 0 {
		t.Fatalf("retry budget of 50 exhausted at prob 0.2: %+v", stats)
	}
}

// TestHardReadErrorFailsTrial: exhausting the retry budget returns a
// *HardError; panicked the way the swap path does, it surfaces as the
// engine's run error, preserving the typed cause through the wrap chain
// (the harness' retry classifier depends on errors.As finding it).
func TestHardReadErrorFailsTrial(t *testing.T) {
	e := sim.NewEngine(2)
	rng := sim.NewRNG(4)
	plan := Plan{ReadErrors: ReadErrorConfig{Prob: 1, MaxRetries: 2, Backoff: sim.Microsecond}}
	d := Wrap(swap.NewSSD(ssdCfg(), e, rng.Stream(1)), plan, nil, rng.Stream(2))
	e.Spawn("reader", false, func(v *sim.Env) {
		if err := d.ReadPage(v, 0, 1, 0); err != nil {
			panic(err)
		}
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected the hard read error to fail the run")
	}
	var hard *HardError
	if !errors.As(err, &hard) {
		t.Fatalf("error chain lost the typed cause: %v", err)
	}
	if hard.Attempts != 3 { // initial read + 2 retries
		t.Fatalf("attempts = %d, want 3", hard.Attempts)
	}
	if d.FaultStats().HardReadErrors != 1 {
		t.Fatalf("stats = %+v", d.FaultStats())
	}
}

// zramRig builds a zram device under pool pressure with an optional
// backing SSD.
func zramRig(e *sim.Engine, rng *sim.RNG, plan Plan, withBacking bool) *Device {
	z := swap.NewZRAM(swap.ZRAMConfig{
		ReadLatency: 20 * sim.Microsecond, WriteLatency: 35 * sim.Microsecond, PageSize: 4096,
	}, rng.Stream(1), nil)
	var backing swap.Device
	if withBacking {
		backing = swap.NewSSD(ssdCfg(), e, rng.Stream(2))
	}
	return Wrap(z, plan, backing, rng.Stream(3))
}

// TestZRAMWritebackFallback: once the compressed pool hits its mem limit,
// further writes spill to the backing SSD, and reads of spilled slots are
// served from it.
func TestZRAMWritebackFallback(t *testing.T) {
	e := sim.NewEngine(2)
	plan := Plan{ZRAM: ZRAMPressureConfig{MemLimitBytes: 4096, Writeback: true}}
	d := zramRig(e, sim.NewRNG(5), plan, true)
	e.Spawn("writer", false, func(v *sim.Env) {
		for i := 0; i < 16; i++ {
			writePage(v, d, swap.Slot(i), int64(i), 0)
		}
		d.Drain(v)
		for i := 0; i < 16; i++ {
			d.ReadPage(v, swap.Slot(i), int64(i), 0)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.FaultStats()
	if st.WritebackPages == 0 {
		t.Fatalf("no pages written back despite a 1-page pool limit: %+v", st)
	}
	if st.WritebackReads == 0 {
		t.Fatalf("no reads served from the backing SSD: %+v", st)
	}
	if st.PoolStalls != 0 {
		t.Fatalf("writeback plan must not stall: %+v", st)
	}
	// A fresh write supersedes the written-back copy: rewriting slot 0
	// below the limit is impossible here (pool stays full), but freeing
	// must clear the spill mark so a recycled slot reads from zram again.
	if len(d.writtenBack) == 0 {
		t.Fatal("no slots marked written-back")
	}
	for s := range d.writtenBack {
		d.FreeSlot(s)
		if _, ok := d.writtenBack[s]; ok {
			t.Fatal("FreeSlot left the written-back mark in place")
		}
		break
	}
}

// TestZRAMPoolStall: with writeback off, over-limit writes stall the
// reclaiming thread for the configured delay and then proceed.
func TestZRAMPoolStall(t *testing.T) {
	e := sim.NewEngine(2)
	plan := Plan{ZRAM: ZRAMPressureConfig{MemLimitBytes: 4096, StallDelay: 5 * sim.Millisecond}}
	d := zramRig(e, sim.NewRNG(6), plan, false)
	var end sim.Time
	e.Spawn("writer", false, func(v *sim.Env) {
		for i := 0; i < 8; i++ {
			writePage(v, d, swap.Slot(i), int64(i), 0)
		}
		end = v.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.FaultStats()
	if st.PoolStalls == 0 {
		t.Fatalf("no pool stalls despite a 1-page limit: %+v", st)
	}
	if st.WritebackPages != 0 {
		t.Fatalf("stall plan must not write back: %+v", st)
	}
	if end < sim.Time(st.PoolStallTime) {
		t.Fatalf("run finished at %v but stalls injected %v", end, sim.Time(st.PoolStallTime))
	}
}

// TestPresets: names resolve, zero plan injects nothing.
func TestPresets(t *testing.T) {
	for _, name := range []string{"", "off", "none"} {
		p, ok := Preset(name)
		if !ok || p.Enabled() {
			t.Fatalf("Preset(%q) = %+v, %v", name, p, ok)
		}
	}
	for _, name := range []string{"mild", "severe"} {
		p, ok := Preset(name)
		if !ok || !p.DeviceEnabled() {
			t.Fatalf("Preset(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := Preset("catastrophic"); ok {
		t.Fatal("unknown preset accepted")
	}
}
