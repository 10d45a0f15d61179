package shard

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

func sweepCells(t *testing.T, opts experiments.Options) []experiments.CellSpec {
	t.Helper()
	cells, err := experiments.SweepCells(opts, experiments.SweepSpec{
		Workloads: []string{"ycsb-c"},
		Policies:  []string{experiments.PolFIFO, experiments.PolRandom, experiments.PolClock},
		Base:      core.DefaultSystemConfig(),
		Ratios:    []float64{0.5, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// calmCfg is fastCfg with a lease TTL far above any scheduling stall.
// Executor tests assert exact lease-expiry and completion counters, so a
// heartbeat goroutine starved past the TTL by full-suite load must not
// masquerade as a crashed worker (a genuine steal double-counts both
// leases.expired and, via the harmless stalled finisher, cells.completed).
func calmCfg(t *testing.T, store *checkpoint.Store) Config {
	t.Helper()
	cfg := fastCfg(t, store)
	cfg.TTL = 60 * time.Second
	return cfg
}

func newRunnerFn(opts experiments.Options, store *checkpoint.Store) func() *experiments.Runner {
	return func() *experiments.Runner {
		o := opts
		o.Checkpoint = store
		return experiments.NewRunner(o)
	}
}

func waitBatch(t *testing.T, b *Batch) {
	t.Helper()
	select {
	case <-b.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("batch did not resolve")
	}
}

// TestExecutorRunsBatch: a submitted batch runs to completion, the store
// holds every cell, and a second submission of the same cells resolves
// immediately from the store without executing anything.
func TestExecutorRunsBatch(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := calmCfg(t, store)
	cells := sweepCells(t, opts)

	e, err := NewExecutor(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	// Counters are only coherent once in-flight workers have finished:
	// the Done signal fires on the store entry, which lands a beat before
	// the executing worker's counter add.
	e.Drain()
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("cell %s missing after batch resolved", c.SeedKey)
		}
	}
	if got := cfg.Counters.Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d", got, len(cells))
	}

	// Resubmit (works even drained): everything is terminal, Done closes
	// synchronously and no new executions are charged.
	b2, err := e.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-b2.Done():
	default:
		t.Fatal("fully-cached batch not resolved at submit")
	}
	if got := cfg.Counters.Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("resubmission executed cells: completed = %d", got)
	}
}

// TestExecutorPackingPreservesCellSet is the satellite property test for
// the enumeration/LPT-packing seam: across worker counts 1, 3, 8 the
// executed cell set is exactly the enumerated set — no cell dropped, no
// cell executed twice (cells.completed equals the set size), stores
// byte-identical — and the enumeration itself is in LPT claim order.
func TestExecutorPackingPreservesCellSet(t *testing.T) {
	opts := fastOpts()
	enum := sweepCells(t, opts)
	for i := 1; i < len(enum); i++ {
		if enum[i-1].Cost < enum[i].Cost {
			t.Fatalf("enumeration not LPT-ordered at %d: %g then %g", i, enum[i-1].Cost, enum[i].Cost)
		}
	}
	seen := map[string]bool{}
	for _, c := range enum {
		if seen[c.Key] {
			t.Fatalf("enumeration duplicates key %s", c.Key)
		}
		seen[c.Key] = true
	}

	var refHashes []string
	var refBytes = map[string][]byte{}
	for _, workers := range []int{1, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			store := openStore(t)
			cfg := calmCfg(t, store)
			e, err := NewExecutor(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Submit(BatchSpec{Cells: enum, NewRunner: newRunnerFn(opts, store)})
			if err != nil {
				t.Fatal(err)
			}
			waitBatch(t, b)
			e.Drain() // settle in-flight counter adds before asserting

			// No drop: every enumerated cell is in the store.
			for _, c := range enum {
				if !store.Has(c.Key) {
					t.Fatalf("workers=%d dropped cell %s", workers, c.SeedKey)
				}
			}
			// No dup: exactly one completion per cell, and the store holds
			// nothing beyond the enumerated set.
			if got := cfg.Counters.Get("cells.completed"); got != int64(len(enum)) {
				t.Fatalf("workers=%d: cells.completed = %d, want %d", workers, got, len(enum))
			}
			hashes := store.Hashes()
			if len(hashes) != len(enum) {
				t.Fatalf("workers=%d: store holds %d entries, want %d", workers, len(hashes), len(enum))
			}
			if refHashes == nil {
				refHashes = hashes
				for _, h := range hashes {
					blob, ok := store.GetHash(h)
					if !ok {
						t.Fatalf("listed hash %s unreadable", h)
					}
					refBytes[h] = blob
				}
				return
			}
			// Identical artifact set across worker counts, byte for byte.
			for i, h := range hashes {
				if refHashes[i] != h {
					t.Fatalf("workers=%d: hash set differs at %d: %s vs %s", workers, i, h, refHashes[i])
				}
				blob, _ := store.GetHash(h)
				if !bytes.Equal(blob, refBytes[h]) {
					t.Fatalf("workers=%d: artifact %s differs from 1-worker run", workers, h)
				}
			}
		})
	}
}

// TestExecutorCrashedAttemptRecovery: a batch containing a cell whose
// previous attempt crashed (running flag set, lease gone — planted via
// the exported SimulateCrashedAttempt) still resolves: the executor
// charges the crashed attempt, requeues, and completes every cell.
func TestExecutorCrashedAttemptRecovery(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := calmCfg(t, store)
	cells := sweepCells(t, opts)
	if err := SimulateCrashedAttempt(cfg.Dir, cells[0]); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	e.Drain() // settle in-flight counter adds before asserting
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("cell %s missing after crash recovery", c.SeedKey)
		}
	}
	if got := cfg.Counters.Get("leases.expired"); got != 1 {
		t.Fatalf("leases.expired = %d, want 1 (the planted crash)", got)
	}
	if got := cfg.Counters.Get("cells.requeued"); got != 1 {
		t.Fatalf("cells.requeued = %d, want 1", got)
	}
	if got := cfg.Counters.Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d (no lost or duplicated cells)", got, len(cells))
	}
}

// TestExecutorDrainResume: draining mid-batch stops cleanly, leaves the
// on-disk state consistent, and a fresh executor over the same store and
// queue directory finishes the batch — the serving-layer SIGTERM story.
func TestExecutorDrainResume(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := calmCfg(t, store)
	cells := sweepCells(t, opts)

	e1, err := NewExecutor(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)}); err != nil {
		t.Fatal(err)
	}
	// Let it start, then drain mid-flight.
	time.Sleep(20 * time.Millisecond)
	e1.Drain()
	done := store.Len()

	// Consistency: every stored entry decodes (PutVerify committed it
	// whole) and no cell is stuck running with a live lease.
	for _, info := range mustQueue(t, cfg, cells).Inspect() {
		if info.Status == CellRunning {
			t.Fatalf("cell %s still running after drain", info.Cell.SeedKey)
		}
	}

	e2, err := NewExecutor(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Drain()
	b, err := e2.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	if store.Len() != len(cells) {
		t.Fatalf("store holds %d entries after resume, want %d (had %d at drain)",
			store.Len(), len(cells), done)
	}
}

// TestExecutorInspect: the derived cell statuses move queued → done, and
// a planted poison record reads back quarantined.
func TestExecutorInspect(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := calmCfg(t, store)
	cells := sweepCells(t, opts)
	q := mustQueue(t, cfg, cells)

	for _, info := range q.Inspect() {
		if info.Status != CellQueued {
			t.Fatalf("fresh cell %s status = %s, want queued", info.Cell.SeedKey, info.Status)
		}
	}

	ordered := q.Cells()
	q.writePoison(0, PoisonRecord{Key: ordered[0].Key, SeedKey: ordered[0].SeedKey,
		Attempts: 3, Err: "planted"})
	if err := store.Put(ordered[1].Key, []byte("done-marker")); err != nil {
		t.Fatal(err)
	}
	infos := q.Inspect()
	if infos[0].Status != CellQuarantined || infos[0].Attempts != 3 || infos[0].LastErr != "planted" {
		t.Fatalf("poisoned cell inspect = %+v", infos[0])
	}
	if infos[1].Status != CellDone {
		t.Fatalf("done cell inspect = %+v", infos[1])
	}
	for _, info := range infos[2:] {
		if info.Status != CellQueued {
			t.Fatalf("untouched cell %s status = %s", info.Cell.SeedKey, info.Status)
		}
	}
}

func mustQueue(t *testing.T, cfg Config, cells []experiments.CellSpec) *Queue {
	t.Helper()
	q, err := NewQueue(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// rendezvousPolicy blocks its first page-in until every cell of the batch
// has started (or release closes), so a batch of such cells resolves only
// when the pool runs them all at once.
type rendezvousPolicy struct {
	policy.Policy
	started      func()
	all, release <-chan struct{}
	arrived      bool
}

func (p *rendezvousPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	if !p.arrived {
		p.arrived = true
		p.started()
		select {
		case <-p.all:
		case <-p.release:
		}
	}
	p.Policy.PageIn(v, f, sh)
}

// TestExecutorSubmitWakesEveryIdleWorker: a Submit must wake every idle
// worker, not just one. With a 1-minute Poll, a 2-cell batch whose cells
// each wait for the other to start only resolves promptly if both idle
// workers picked it up at submit time.
func TestExecutorSubmitWakesEveryIdleWorker(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := calmCfg(t, store)
	cfg.Poll = time.Minute
	cells, err := experiments.SweepCells(opts, experiments.SweepSpec{
		Workloads: []string{"ycsb-c"},
		Policies:  []string{experiments.PolFIFO, experiments.PolRandom},
		Base:      core.DefaultSystemConfig(),
		Ratios:    []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("sweep enumerates %d cells, want 2", len(cells))
	}

	var running atomic.Int32
	all, release := make(chan struct{}), make(chan struct{})
	started := func() {
		if running.Add(1) == int32(len(cells)) {
			close(all)
		}
	}
	resolve := func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
		w, p, err := RegistryResolve(cell, opts.Scale)
		if err != nil {
			return w, p, err
		}
		inner := p.Make
		p.Make = func() policy.Policy {
			return &rendezvousPolicy{Policy: inner(), started: started, all: all, release: release}
		}
		return w, p, nil
	}

	e, err := NewExecutor(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup order: unblock any waiting cell, then drain the pool.
	defer e.Drain()
	defer close(release)
	// Let both workers finish their startup scan and go idle.
	time.Sleep(100 * time.Millisecond)
	b, err := e.Submit(BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store), Resolve: resolve})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("batch unresolved after 10s with %d of %d cells running: Submit left an idle worker asleep",
			running.Load(), len(cells))
	}
}
