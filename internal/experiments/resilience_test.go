package experiments

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/sim"
	"mglrusim/internal/vmm"
)

// aggressivePlan injects enough faults at tiny trial scales that every
// injection counter is exercised, without ever exhausting a retry budget.
func aggressivePlan() fault.Plan {
	return fault.Plan{
		Storms: fault.StormConfig{
			Rate: 50, MeanDuration: 10 * sim.Millisecond,
			ExtraLatency: 1 * sim.Millisecond, Jitter: 0.3, StallProb: 0.2,
		},
		ReadErrors: fault.ReadErrorConfig{Prob: 0.01, MaxRetries: 64, Backoff: 10 * sim.Microsecond},
	}
}

// encodeOrDie is the test shorthand for a series' canonical byte form.
func encodeOrDie(t *testing.T, key string, s *Series) []byte {
	t.Helper()
	data, err := encodeSeries(key, s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFaultInjectionDeterminism: two independent harness processes (two
// fresh runners — separate caches, separate RNG trees) with the same seed
// and plan must produce byte-identical series, injected-fault counters
// included.
func TestFaultInjectionDeterminism(t *testing.T) {
	opts := fastOpts()
	opts.Fault = aggressivePlan()
	w := WorkloadByName("ycsb-c", 0.1)
	p := PolicyByName(PolClock)
	sys := SystemAt(0.5, core.SwapSSD)

	run := func() *Series {
		s, err := NewRunner(opts).Run(w, p, sys)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if !bytes.Equal(encodeOrDie(t, "k", a), encodeOrDie(t, "k", b)) {
		t.Fatal("same-seed fault-injected runs diverged")
	}
	inj := a.InjectionTotals()
	if inj.Storms == 0 {
		t.Fatalf("plan injected nothing; determinism check is vacuous: %+v", inj)
	}

	// A different seed must actually change the injection schedule.
	opts2 := opts
	opts2.Seed = 0xD1FF
	c, err := NewRunner(opts2).Run(w, p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeOrDie(t, "k", a), encodeOrDie(t, "k", c)) {
		t.Fatal("different seeds produced identical fault-injected series")
	}
}

// TestCheckpointResume: a second harness process sharing the store must
// serve the series from disk — zero trial executions — and reproduce the
// persisted bytes exactly, so resumed figure runs are byte-identical to
// uninterrupted ones.
func TestCheckpointResume(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Checkpoint = store
	w := WorkloadByName("ycsb-c", 0.1)
	sys := SystemAt(0.5, core.SwapSSD)

	var firstRuns atomic.Int64
	a, err := NewRunner(opts).Run(w, countingPolicy(PolClock, &firstRuns), sys)
	if err != nil {
		t.Fatal(err)
	}
	if firstRuns.Load() == 0 {
		t.Fatal("first run executed nothing")
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d series, want 1", store.Len())
	}

	var resumedRuns atomic.Int64
	b, err := NewRunner(opts).Run(w, countingPolicy(PolClock, &resumedRuns), sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumedRuns.Load(); got != 0 {
		t.Fatalf("resume re-executed %d trials, want 0", got)
	}
	if !bytes.Equal(encodeOrDie(t, "k", a), encodeOrDie(t, "k", b)) {
		t.Fatal("resumed series differs from the original")
	}

	// A different configuration must not be served from the same store.
	var otherRuns atomic.Int64
	if _, err := NewRunner(opts).Run(w, countingPolicy(PolFIFO, &otherRuns), SystemAt(0.75, core.SwapSSD)); err != nil {
		t.Fatal(err)
	}
	if otherRuns.Load() == 0 {
		t.Fatal("different config was wrongly served from checkpoint")
	}
}

// TestCheckpointRejectsCorruptEntry: a truncated or tampered blob is
// treated as absent — the series re-executes and overwrites it — rather
// than poisoning the resumed run.
func TestCheckpointRejectsCorruptEntry(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Checkpoint = store
	w := WorkloadByName("ycsb-c", 0.1)
	sys := SystemAt(0.5, core.SwapSSD)

	if _, err := NewRunner(opts).Run(w, PolicyByName(PolClock), sys); err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored entry in place.
	r2 := NewRunner(opts)
	sysFolded := sys
	sysFolded.VMM.Audit = sysFolded.VMM.Audit || opts.Audit
	key := r2.cacheKey(seedKey(w, PolicyByName(PolClock), sysFolded), sysFolded)
	if err := store.Put(key, []byte(`{"Version":999}`)); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	if _, err := r2.Run(w, countingPolicy(PolClock, &runs), sys); err != nil {
		t.Fatal(err)
	}
	if runs.Load() == 0 {
		t.Fatal("corrupt checkpoint entry was trusted instead of re-executed")
	}
}

// hardFailOncePolicy panics a typed *fault.HardError on its first PageIn;
// instances after the first behave normally. It models a transient
// injected device failure that a retry with a perturbed seed absorbs.
type hardFailOncePolicy struct{ policy.Policy }

func (hardFailOncePolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	panic(&fault.HardError{Device: "test", Slot: 0, Attempts: 3})
}

// TestRetryRecoversTransientFailure: with a retry budget, a trial that
// dies of a hard injected error re-executes and the series completes; the
// failure consumes exactly one extra attempt.
func TestRetryRecoversTransientFailure(t *testing.T) {
	var makes atomic.Int64
	base := PolicyByName(PolClock)
	p := PolicySpec{Name: base.Name, Make: func() policy.Policy {
		if makes.Add(1) == 1 {
			return hardFailOncePolicy{clock.New(clock.DefaultConfig())}
		}
		return base.Make()
	}}
	opts := Options{Trials: 1, Scale: 0.1, Seed: 0xABC, Parallelism: 1, Retries: 2}
	if _, err := NewRunner(opts).Run(WorkloadByName("ycsb-c", 0.1), p, SystemAt(0.5, core.SwapSSD)); err != nil {
		t.Fatalf("retry did not absorb the transient failure: %v", err)
	}
	if got := makes.Load(); got != 2 {
		t.Fatalf("policy built %d times, want 2 (original + one retry)", got)
	}

	// Without a budget the same failure surfaces, still carrying its type.
	makes.Store(0)
	opts.Retries = 0
	_, err := NewRunner(opts).Run(WorkloadByName("ycsb-c", 0.1), p, SystemAt(0.5, core.SwapSSD))
	var hard *fault.HardError
	if !errors.As(err, &hard) {
		t.Fatalf("error chain lost the typed cause: %v", err)
	}
}

// TestRetryableClassifier: only typed transient-injection failures are
// retryable; deterministic bugs must surface.
func TestRetryableClassifier(t *testing.T) {
	for _, err := range []error{
		&fault.HardError{Device: "ssd", Slot: 1, Attempts: 9},
		&core.LivelockError{At: 1, Window: 2},
		&vmm.OOMError{At: 1, VPN: 2, Used: 3},
	} {
		if !Retryable(err) {
			t.Fatalf("%T not classified retryable", err)
		}
		if !Retryable(errors.Join(errors.New("trial 3"), err)) {
			t.Fatalf("wrapped %T not classified retryable", err)
		}
	}
	if Retryable(errors.New("policy bug")) {
		t.Fatal("generic failure classified retryable")
	}
}

// stallPolicy wedges every fault-in forever: the canonical livelock.
type stallPolicy struct{ policy.Policy }

func (stallPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	for {
		v.Sleep(1 * sim.Second)
	}
}

// TestWatchdogDetectsLivelock: a trial making no workload progress fails
// with a typed LivelockError after the configured virtual-time window
// instead of simulating forever.
func TestWatchdogDetectsLivelock(t *testing.T) {
	base := PolicyByName(PolClock)
	p := PolicySpec{Name: base.Name, Make: func() policy.Policy {
		return stallPolicy{clock.New(clock.DefaultConfig())}
	}}
	opts := Options{Trials: 1, Scale: 0.1, Seed: 0xABC, Parallelism: 1, Watchdog: 100 * sim.Millisecond}
	_, err := NewRunner(opts).Run(WorkloadByName("ycsb-c", 0.1), p, SystemAt(0.5, core.SwapSSD))
	if err == nil {
		t.Fatal("livelocked trial did not fail")
	}
	var live *core.LivelockError
	if !errors.As(err, &live) {
		t.Fatalf("error chain lost the typed cause: %v", err)
	}
	if live.Window != 100*sim.Millisecond {
		t.Fatalf("window = %v", live.Window)
	}
}

// TestRunMatrixGracefulDegradation: one broken policy fails only its own
// cells; every other cell completes and is returned.
func TestRunMatrixGracefulDegradation(t *testing.T) {
	broken := PolicySpec{Name: "broken", Make: func() policy.Policy {
		return failingPolicy{clock.New(clock.DefaultConfig())}
	}}
	r := NewRunner(fastOpts())
	ws := []WorkloadSpec{WorkloadByName("ycsb-c", 0.1)}
	ps := []PolicySpec{PolicyByName(PolClock), broken, PolicyByName(PolFIFO)}

	res, err := r.RunMatrix(ws, ps, SystemAt(0.5, core.SwapSSD))
	if err != nil {
		t.Fatalf("partial failure must not fail the sweep: %v", err)
	}
	if res.Complete() {
		t.Fatal("broken cell not recorded")
	}
	if len(res.Failed) != 1 || res.Failed[0].Policy != "broken" {
		t.Fatalf("failed cells = %+v", res.Failed)
	}
	if res.Get("ycsb-c", PolClock) == nil || res.Get("ycsb-c", PolFIFO) == nil {
		t.Fatal("healthy cells missing from a degraded matrix")
	}
	if res.Get("ycsb-c", "broken") != nil {
		t.Fatal("failed cell present in results")
	}
	if res.Err() == nil {
		t.Fatal("Err() must summarize the failed cells")
	}

	// Only when nothing completes does the sweep itself error.
	res2, err := r.RunMatrix(ws, []PolicySpec{broken}, SystemAt(0.5, core.SwapSSD))
	if err == nil {
		t.Fatal("all-cells-failed sweep must return an error")
	}
	if res2 == nil || len(res2.Failed) != 1 {
		t.Fatal("annotations must survive a total failure")
	}
}

// TestExtensionRegistry: the paper's figure map stays exactly twelve
// entries; extensions live in their own registry and never collide.
func TestExtensionRegistry(t *testing.T) {
	if len(Figures) != 12 {
		t.Fatalf("Figures has %d entries, the paper has 12", len(Figures))
	}
	if len(Extensions) == 0 {
		t.Fatal("no extension experiments registered")
	}
	for id := range Extensions {
		if _, clash := Figures[id]; clash {
			t.Fatalf("extension id %q collides with a paper figure", id)
		}
	}
	ids := ExtensionIDs()
	if len(ids) != len(Extensions) {
		t.Fatalf("ExtensionIDs() = %v", ids)
	}
}

// TestDeviceHardErrorBothConsumers drives one certain-failure read plan
// (every read fails, no retry budget) through both consumers of the
// device I/O API. On the swap path the error fails core.RunTrial with a
// typed, retryable *fault.HardError; targeted at the file backing
// device, the page cache absorbs every failure and the trial completes.
func TestDeviceHardErrorBothConsumers(t *testing.T) {
	plan := fault.Plan{ReadErrors: fault.ReadErrorConfig{Prob: 1, MaxRetries: 0}}

	sys := SystemAt(0.5, core.SwapSSD)
	sys.Fault = plan
	_, err := core.RunTrial(WorkloadByName("ycsb-c", 0.1).Make(), PolicyByName(PolClock).Make, sys, 0xABCD, 7)
	var hard *fault.HardError
	if err == nil || !errors.As(err, &hard) {
		t.Fatalf("swap hard read error: trial err = %v, want a *fault.HardError", err)
	}
	if !Retryable(err) {
		t.Fatalf("swap hard read error not retryable: %v", err)
	}

	sys = SystemAt(0.5, core.SwapSSD)
	sys.PageCache = pagecache.DefaultConfig()
	sys.Fault = plan
	sys.Fault.Target = fault.TargetFile
	m, err := core.RunTrial(WorkloadByName("serve", 0.1).Make(), PolicyByName(PolClock).Make, sys, 0xABCD, 7)
	if err != nil {
		t.Fatalf("file hard read errors failed the trial: %v", err)
	}
	if m.FileCache.FileIOErrors == 0 {
		t.Fatalf("no file I/O errors recorded: %+v", m.FileCache)
	}
}
