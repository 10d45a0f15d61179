package shard

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

func fastOpts() experiments.Options {
	return experiments.Options{Trials: 1, Scale: 0.1, Seed: 0xABC, Parallelism: 1}
}

func fastCfg(t *testing.T, store *checkpoint.Store) Config {
	t.Helper()
	return Config{
		Dir:      filepath.Join(t.TempDir(), "queue"),
		Store:    store,
		TTL:      2 * time.Second,
		Backoff:  10 * time.Millisecond,
		Poll:     10 * time.Millisecond,
		Counters: telemetry.NewCounterSet(),
	}
}

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// lockedBuffer is a goroutine-safe io.Writer for executor progress lines.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// runBatch executes spec to a terminal state on a fresh executor with the
// given worker count, then drains it so every counter has settled.
// Executor workers log infrastructure errors rather than return them; any
// such line fails the test.
func runBatch(t *testing.T, cfg Config, workers int, spec BatchSpec) {
	t.Helper()
	var log lockedBuffer
	cfg.Progress = &log
	e, err := NewExecutor(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit(spec)
	if err != nil {
		e.Drain()
		t.Fatal(err)
	}
	waitBatch(t, b)
	e.Drain()
	if out := log.String(); strings.Contains(out, "shard: executor worker") {
		t.Fatalf("executor worker failed:\n%s", out)
	}
}

func renderFig1(t *testing.T, opts experiments.Options) string {
	t.Helper()
	res, err := experiments.Figures["fig1"](experiments.NewRunner(opts))
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

// TestShardedEquivalence is the strategy-equivalence property from the
// paper-reproduction contract: a figure produced serially, with
// in-process trial parallelism, and by a 4-worker executor filling a
// shared store that the render then resumes from must render
// byte-identically.
func TestShardedEquivalence(t *testing.T) {
	opts := fastOpts()
	opts.Trials = 2

	serialOpts := opts
	serial := renderFig1(t, serialOpts)

	parOpts := opts
	parOpts.Parallelism = 4
	parallel := renderFig1(t, parOpts)
	if serial != parallel {
		t.Fatalf("in-process parallel render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	store := openStore(t)
	cfg := fastCfg(t, store)
	cells, err := experiments.CellsFor(opts, experiments.Figures["fig1"])
	if err != nil {
		t.Fatal(err)
	}
	runBatch(t, cfg, 4, BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("executor left cell %s/%s unexecuted", c.Workload, c.Policy)
		}
	}
	if got := cfg.Counters.Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d", got, len(cells))
	}

	shardedOpts := opts
	shardedOpts.Checkpoint = store
	shardedOpts.Veto = Veto(cfg.Dir)
	sharded := renderFig1(t, shardedOpts)
	if sharded != serial {
		t.Fatalf("sharded render differs from serial:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
}

// crashingPolicy fails deterministically partway into every trial.
type crashingPolicy struct {
	policy.Policy
	ins int
}

func (c *crashingPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	c.ins++
	if c.ins == 10 {
		panic("injected poison-cell failure")
	}
	c.Policy.PageIn(v, f, sh)
}

// failingResolve resolves cells through the registry but swaps the named
// policy's constructor for a deterministically-crashing one.
func failingResolve(poisonPolicy string, scale float64) func(experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
	return func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
		w, p, err := RegistryResolve(cell, scale)
		if err != nil {
			return w, p, err
		}
		if cell.Policy == poisonPolicy {
			p = experiments.PolicySpec{Name: p.Name, Make: func() policy.Policy {
				return &crashingPolicy{Policy: mglru.New(mglru.Default())}
			}}
		}
		return w, p, nil
	}
}

// TestPoisonCellQuarantined: a cell that fails every attempt is
// quarantined after exactly the attempt budget, the rest of the matrix
// completes, and the final veto-aware sweep surfaces the quarantine as a
// per-cell *QuarantinedError without re-executing or hanging.
func TestPoisonCellQuarantined(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)
	cfg.Attempts = 2

	ws := []experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)}
	ps := experiments.Policies(experiments.PolClock, experiments.PolFIFO)
	sys := experiments.SystemAt(0.5, core.SwapSSD)

	sweepOpts := opts
	sweepOpts.Checkpoint = store
	sweepOpts.Veto = Veto(cfg.Dir)
	r := experiments.NewRunner(sweepOpts)

	runBatch(t, cfg, 2, BatchSpec{
		Cells:     r.MatrixCells(ws, ps, sys),
		NewRunner: newRunnerFn(opts, store),
		Resolve:   failingResolve(experiments.PolClock, opts.Scale),
	})
	res, err := r.RunMatrix(ws, ps, sys)
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}

	if res.Complete() {
		t.Fatal("matrix with a poisoned cell reported complete")
	}
	if len(res.Failed) != 1 || res.Failed[0].Policy != experiments.PolClock {
		t.Fatalf("Failed = %+v, want exactly the clock cell", res.Failed)
	}
	var q *QuarantinedError
	if !errors.As(res.Failed[0].Err, &q) {
		t.Fatalf("failed cell error is %T (%v), want *QuarantinedError", res.Failed[0].Err, res.Failed[0].Err)
	}
	if q.Record.Attempts != cfg.Attempts {
		t.Fatalf("quarantined after %d attempts, want the budget %d", q.Record.Attempts, cfg.Attempts)
	}
	if res.Get("ycsb-c", experiments.PolFIFO) == nil {
		t.Fatal("healthy cell missing from the sharded matrix")
	}

	cells := r.MatrixCells(ws, ps, sys)
	recs := Poisoned(cfg.Dir, cells)
	if len(recs) != 1 {
		t.Fatalf("Poisoned() = %d records, want 1", len(recs))
	}
	if got := cfg.Counters.Get("cells.poisoned"); got != 1 {
		t.Fatalf("cells.poisoned = %d, want 1", got)
	}
	if got := cfg.Counters.Get("cells.requeued"); got != int64(cfg.Attempts-1) {
		t.Fatalf("cells.requeued = %d, want %d (budget-1 clean failures requeue)", got, cfg.Attempts-1)
	}
}

// tamperingPolicy plants a different payload under its own cell's store
// key mid-run, forcing the runner's verified publish to detect a
// duplicate completion with different bytes.
type tamperingPolicy struct {
	policy.Policy
	store *checkpoint.Store
	key   string
	done  bool
}

func (c *tamperingPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	if !c.done {
		c.done = true
		if err := c.store.Put(c.key, []byte("not the real series bytes")); err != nil {
			panic(err)
		}
	}
	c.Policy.PageIn(v, f, sh)
}

// TestDeterminismViolationQuarantinedWithArtifacts: a duplicate
// completion with different bytes is an immediate quarantine (no
// retries) whose poison record points at both preserved payloads.
func TestDeterminismViolationQuarantinedWithArtifacts(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)

	ws := []experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)}
	ps := experiments.Policies(experiments.PolMGLRU)
	sys := experiments.SystemAt(0.5, core.SwapSSD)

	sweepOpts := opts
	sweepOpts.Checkpoint = store
	r := experiments.NewRunner(sweepOpts)
	runBatch(t, cfg, 1, BatchSpec{
		Cells:     r.MatrixCells(ws, ps, sys),
		NewRunner: newRunnerFn(opts, store),
		Resolve: func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
			w, p, err := RegistryResolve(cell, opts.Scale)
			if err != nil {
				return w, p, err
			}
			key := cell.Key
			p = experiments.PolicySpec{Name: p.Name, Make: func() policy.Policy {
				return &tamperingPolicy{Policy: mglru.New(mglru.Default()), store: store, key: key}
			}}
			return w, p, nil
		},
	})

	recs := Poisoned(cfg.Dir, r.MatrixCells(ws, ps, sys))
	if len(recs) != 1 {
		t.Fatalf("Poisoned() = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Attempts != 1 {
		t.Fatalf("determinism violation retried: %d attempts recorded", rec.Attempts)
	}
	if len(rec.Artifacts) != 2 {
		t.Fatalf("poison record artifacts = %v, want both payload paths", rec.Artifacts)
	}
	for _, a := range rec.Artifacts {
		if _, err := os.Stat(a); err != nil {
			t.Fatalf("preserved artifact missing: %v", err)
		}
	}
	if got := cfg.Counters.Get("determinism.violations"); got != 1 {
		t.Fatalf("determinism.violations = %d, want 1", got)
	}
}

// TestWorkerDrainStopsPromptly: a raised drain flag stops the worker
// before it claims anything.
func TestWorkerDrainStopsPromptly(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)
	cells, err := experiments.CellsFor(opts, experiments.Figures["fig1"])
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	var drain atomic.Bool
	drain.Store(true)
	o := opts
	o.Checkpoint = store
	if err := q.RunWorker(WorkerConfig{Runner: experiments.NewRunner(o), Drain: &drain}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("drained worker executed %d cells", store.Len())
	}
	if p := q.Snapshot(); p.Resolved() {
		t.Fatal("drained queue cannot be resolved")
	}
}

// TestCrashedAttemptChargedAndRequeued pins the crash-accounting
// protocol deterministically (the kill-storm test exercises it under
// real SIGKILL timing): a cell whose on-disk state is still marked
// running with no live lease means the previous holder died mid-attempt.
// The next claimant must charge that attempt, requeue with backoff, and
// then complete the cell normally.
func TestCrashedAttemptChargedAndRequeued(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)
	r := experiments.NewRunner(opts)
	cells := r.MatrixCells(
		[]experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)},
		experiments.Policies(experiments.PolFIFO),
		experiments.SystemAt(0.5, core.SwapSSD))
	q, err := NewQueue(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the dead holder: attempt 1 recorded as in flight, lease
	// already expired (absent — same observable state once reaped).
	if err := q.writeState(0, cellState{Key: cells[0].Key, SeedKey: cells[0].SeedKey,
		Attempts: 1, Running: true}); err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Checkpoint = store
	if err := q.RunWorker(WorkerConfig{Runner: experiments.NewRunner(o)}); err != nil {
		t.Fatal(err)
	}
	if !store.Has(cells[0].Key) {
		t.Fatal("cell not completed after crash recovery")
	}
	if got := cfg.Counters.Get("leases.expired"); got != 1 {
		t.Fatalf("leases.expired = %d, want 1 (the crashed attempt)", got)
	}
	if got := cfg.Counters.Get("cells.requeued"); got != 1 {
		t.Fatalf("cells.requeued = %d, want 1", got)
	}
	if got := cfg.Counters.Get("cells.completed"); got != 1 {
		t.Fatalf("cells.completed = %d, want 1", got)
	}
	if st := q.readState(0); st.Attempts != 2 || st.Running {
		t.Fatalf("final state = %+v, want 2 attempts, not running", st)
	}
}

// TestCrashAtBudgetPoisons: a worker that dies mid-attempt with the
// budget already spent is quarantined by the next claimant without
// another execution.
func TestCrashAtBudgetPoisons(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)
	cfg.Attempts = 2
	r := experiments.NewRunner(opts)
	cells := r.MatrixCells(
		[]experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)},
		experiments.Policies(experiments.PolFIFO),
		experiments.SystemAt(0.5, core.SwapSSD))
	q, err := NewQueue(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.writeState(0, cellState{Key: cells[0].Key, SeedKey: cells[0].SeedKey,
		Attempts: cfg.Attempts, Running: true}); err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Checkpoint = store
	if err := q.RunWorker(WorkerConfig{Runner: experiments.NewRunner(o)}); err != nil {
		t.Fatal(err)
	}
	if store.Has(cells[0].Key) {
		t.Fatal("poisoned cell was executed anyway")
	}
	recs := Poisoned(cfg.Dir, cells)
	if len(recs) != 1 || recs[0].Attempts != cfg.Attempts {
		t.Fatalf("Poisoned() = %+v, want one record at the budget", recs)
	}
	if !q.Snapshot().Resolved() {
		t.Fatal("queue with only a poisoned cell must be resolved")
	}
}
