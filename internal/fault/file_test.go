package fault

import (
	"errors"
	"reflect"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// TestStatsAddComplete: every Stats field must participate in Add. The
// harness aggregates per-trial injection counters by summation; a field
// that Add forgets silently reports zero in every figure. Reflection
// fills each field with a distinct value and checks Add(zero, filled)
// round-trips all of them.
func TestStatsAddComplete(t *testing.T) {
	var filled Stats
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
	var sum Stats
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
	// Add must accumulate, not assign.
	sum.Add(filled)
	if sum == filled {
		t.Fatal("second Add did not accumulate")
	}
}

// writeScenario issues writes through a wrapped SSD and returns the
// completion instants, the injected stats, and the first hard error.
func writeScenario(t *testing.T, seed uint64, plan Plan, n int) ([]sim.Time, Stats, error) {
	t.Helper()
	e := sim.NewEngine(2)
	rng := sim.NewRNG(seed)
	d := Wrap(swap.NewSSD(ssdCfg(), e, rng.Stream(1)), plan, nil, rng.Stream(2))
	var ends []sim.Time
	var firstErr error
	e.Spawn("writer", false, func(v *sim.Env) {
		for i := 0; i < n; i++ {
			if err := writePage(v, d, swap.Slot(i%8), int64(i), 0); err != nil && firstErr == nil {
				firstErr = err
			}
			ends = append(ends, v.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return ends, d.FaultStats(), firstErr
}

// TestTransientWriteErrorsRetry: a generous retry budget absorbs a
// moderate write-error rate — retries recorded, no hard failures, no
// error surfaced to the caller.
func TestTransientWriteErrorsRetry(t *testing.T) {
	_, stats, err := writeScenario(t, 7, Plan{WriteErrors: WriteErrorConfig{
		Prob: 0.2, MaxRetries: 50, Backoff: 100 * sim.Microsecond,
	}}, 200)
	if err != nil {
		t.Fatalf("retry budget of 50 leaked an error: %v", err)
	}
	if stats.TransientWriteErrors == 0 || stats.WriteRetries == 0 {
		t.Fatalf("no transient write errors injected: %+v", stats)
	}
	if stats.HardWriteErrors != 0 {
		t.Fatalf("retry budget exhausted at prob 0.2: %+v", stats)
	}
}

// TestHardWriteErrorReturned: a write past its retry budget must end
// with the typed hard error in WriteWalk.Err rather than panic — the page cache turns it into an errseq ledger
// entry, not a dead trial.
func TestHardWriteErrorReturned(t *testing.T) {
	_, stats, err := writeScenario(t, 8, Plan{WriteErrors: WriteErrorConfig{
		Prob: 1, MaxRetries: 2, Backoff: sim.Microsecond,
	}}, 1)
	if err == nil {
		t.Fatal("expected a hard write error")
	}
	var hard *HardError
	if !errors.As(err, &hard) {
		t.Fatalf("not a *HardError: %v", err)
	}
	if hard.Op != "write" || hard.Attempts != 3 {
		t.Fatalf("hard = %+v, want op=write attempts=3", hard)
	}
	if stats.HardWriteErrors != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestPrefetchErrSilent: a file-device PrefetchPage flags the failure to
// the caller and counts it, but never retries and never panics —
// readahead is speculative, the kernel just abandons it.
func TestPrefetchErrSilent(t *testing.T) {
	e := sim.NewEngine(2)
	rng := sim.NewRNG(9)
	plan := Plan{ReadErrors: ReadErrorConfig{Prob: 1, MaxRetries: 10, Backoff: sim.Millisecond}}
	d := WrapFile(swap.NewSSD(ssdCfg(), e, rng.Stream(1)), plan, rng.Stream(2))
	var err error
	e.Spawn("ra", false, func(v *sim.Env) {
		err = d.PrefetchPage(v, 0, 1, 0)
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatalf("prefetch error escalated to the engine: %v", rerr)
	}
	var hard *HardError
	if !errors.As(err, &hard) || hard.Attempts != 1 {
		t.Fatalf("err = %v, want single-attempt *HardError", err)
	}
	st := d.FaultStats()
	if st.PrefetchErrors != 1 || st.ReadRetries != 0 || st.HardReadErrors != 0 {
		t.Fatalf("prefetch failure must not enter the retry path: %+v", st)
	}
}

// TestZeroPlanTransparency: wrapping a device with an all-zero plan —
// regardless of target — must be byte-invisible: identical completion
// times to the bare device and zero injected stats. This is what lets
// the file-device wrapper ride every existing figure without moving a
// single event.
func TestZeroPlanTransparency(t *testing.T) {
	run := func(wrap bool, target DeviceTarget) []sim.Time {
		e := sim.NewEngine(2)
		rng := sim.NewRNG(0xFACADE)
		var dev swap.Device = swap.NewSSD(ssdCfg(), e, rng.Stream(1))
		var fd *Device
		switch {
		case !wrap:
		case target == TargetFile:
			fd = WrapFile(dev, Plan{Target: target}, rng.Stream(2))
		default:
			fd = Wrap(dev, Plan{Target: target}, nil, rng.Stream(2))
		}
		if fd != nil {
			dev = fd
		}
		var ends []sim.Time
		e.Spawn("mixed", false, func(v *sim.Env) {
			for i := 0; i < 100; i++ {
				writePage(v, dev, swap.Slot(i%8), int64(i), 0)
				dev.ReadPage(v, swap.Slot(i%8), int64(i), 0)
				dev.PrefetchPage(v, swap.Slot((i+1)%8), int64(i+1), 0)
				ends = append(ends, v.Now())
			}
			dev.Drain(v)
			ends = append(ends, v.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if fd != nil {
			if st := (Stats{}); fd.FaultStats() != st {
				t.Fatalf("zero plan injected: %+v", fd.FaultStats())
			}
		}
		return ends
	}
	bare := run(false, TargetSwap)
	for _, target := range []DeviceTarget{TargetSwap, TargetFile, TargetBoth} {
		wrapped := run(true, target)
		if len(bare) != len(wrapped) {
			t.Fatalf("target %v: %d vs %d events", target, len(bare), len(wrapped))
		}
		for i := range bare {
			if bare[i] != wrapped[i] {
				t.Fatalf("target %v: op %d at %v wrapped vs %v bare", target, i, wrapped[i], bare[i])
			}
		}
	}
}

// TestErrVariantTimingParity: the swap wrapper (Wrap) and the file
// wrapper (WrapFile) must draw the same RNG sequence and charge the same
// latency for ReadPage and WriteStep, so one implementation serves both
// planes. They differ only on PrefetchPage: the swap wrapper flips no
// read-error coin — it returns nil and draws nothing, even at Prob 1 —
// while the file wrapper flips exactly one.
func TestErrVariantTimingParity(t *testing.T) {
	plan := Plan{
		Storms:      StormConfig{Rate: 20, MeanDuration: 20 * sim.Millisecond, ExtraLatency: 2 * sim.Millisecond, Jitter: 0.4},
		ReadErrors:  ReadErrorConfig{Prob: 0.1, MaxRetries: 20, Backoff: 100 * sim.Microsecond},
		WriteErrors: WriteErrorConfig{Prob: 0.1, MaxRetries: 20, Backoff: 100 * sim.Microsecond},
	}
	wrap := func(file bool, e *sim.Engine, plan Plan) *Device {
		rng := sim.NewRNG(0xD15C)
		inner := swap.NewSSD(ssdCfg(), e, rng.Stream(1))
		if file {
			return WrapFile(inner, plan, rng.Stream(2))
		}
		return Wrap(inner, plan, nil, rng.Stream(2))
	}
	run := func(file bool) ([]sim.Time, Stats) {
		e := sim.NewEngine(2)
		d := wrap(file, e, plan)
		var ends []sim.Time
		e.Spawn("io", false, func(v *sim.Env) {
			for i := 0; i < 200; i++ {
				if err := writePage(v, d, swap.Slot(i%8), int64(i), 0); err != nil {
					t.Errorf("unexpected hard write error: %v", err)
				}
				if err := d.ReadPage(v, swap.Slot(i%8), int64(i), 0); err != nil {
					t.Errorf("unexpected hard read error: %v", err)
				}
				ends = append(ends, v.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return ends, d.FaultStats()
	}
	a, sa := run(false)
	b, sb := run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: swap wrapper at %v but file wrapper at %v", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Fatalf("stats diverge:\nswap %+v\nfile %+v", sa, sb)
	}
	if sa.TransientReadErrors == 0 || sa.TransientWriteErrors == 0 {
		t.Fatalf("no errors injected; parity is vacuous: %+v", sa)
	}

	certain := Plan{ReadErrors: ReadErrorConfig{Prob: 1}}
	for _, file := range []bool{false, true} {
		e := sim.NewEngine(2)
		d := wrap(file, e, certain)
		var errs int
		e.Spawn("ra", false, func(v *sim.Env) {
			for i := 0; i < 10; i++ {
				if d.PrefetchPage(v, swap.Slot(i), int64(i), 0) != nil {
					errs++
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := 0
		if file {
			want = 10
		}
		if errs != want || d.FaultStats().PrefetchErrors != uint64(want) {
			t.Fatalf("file=%v: %d prefetch errors (stats %+v), want %d", file, errs, d.FaultStats(), want)
		}
		// The next draw on the wrapper's stream shows how many coins the
		// prefetches consumed.
		fresh := sim.NewRNG(0xD15C).Stream(2)
		for i := 0; i < want; i++ {
			fresh.Float64()
		}
		if got, exp := d.rng.Uint64(), fresh.Uint64(); got != exp {
			t.Fatalf("file=%v: prefetches drew the wrong number of coins", file)
		}
	}
}

// TestFilePresets: the file-device preset names resolve, target the
// file plane, and the plan targeting helpers partition correctly.
func TestFilePresets(t *testing.T) {
	for _, name := range []string{"file-mild", "file-severe"} {
		p, ok := Preset(name)
		if !ok || !p.DeviceEnabled() {
			t.Fatalf("Preset(%q) = %+v, %v", name, p, ok)
		}
		if !p.TargetsFile() || p.TargetsSwap() {
			t.Fatalf("Preset(%q) targets %v, want file only", name, p.Target)
		}
		if !p.WriteErrors.Enabled() {
			t.Fatalf("Preset(%q) has no write-error plan", name)
		}
	}
	// Legacy swap presets must keep targeting swap: Target's zero value.
	for _, name := range []string{"mild", "severe"} {
		p, _ := Preset(name)
		if !p.TargetsSwap() || p.TargetsFile() {
			t.Fatalf("Preset(%q) targets %v, want swap only", name, p.Target)
		}
	}
	both := Plan{Target: TargetBoth}
	if !both.TargetsSwap() || !both.TargetsFile() {
		t.Fatal("TargetBoth must hit both planes")
	}
	for want, target := range map[string]DeviceTarget{"swap": TargetSwap, "file": TargetFile, "both": TargetBoth} {
		if target.String() != want {
			t.Fatalf("DeviceTarget(%d).String() = %q, want %q", target, target.String(), want)
		}
	}
}
