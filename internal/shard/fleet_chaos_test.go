package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// This file is the in-process half of the fleet chaos gauntlet: every
// failure mode a shared filesystem exhibits — a paused worker resuming
// after its lease was stolen, skewed clocks, torn lease records,
// transient ESTALE/EIO blips — reproduced deterministically with an
// injected clock and fault hooks, and in every case the store converges
// to the bytes a serial run produces. The multi-process half (real
// SIGSTOP/SIGKILL against worker processes) lives in chaos_test.go.

// testClock is a settable clock shared by every queue in a scenario.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// stallingPolicy wraps a real policy and blocks on its first PageIn until
// released — the in-process equivalent of SIGSTOPping a worker in the
// middle of a trial, after the checkpoint-resume probe but before
// publication.
type stallingPolicy struct {
	policy.Policy
	once    sync.Once
	entered chan<- struct{}
	release <-chan struct{}
}

func (s *stallingPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	s.Policy.PageIn(v, f, sh)
}

// oneCell enumerates the single FIFO/ycsb-c cell every fleet scenario
// runs, through a runner carrying the given store so keys match worker
// runners.
func oneCell(t *testing.T, opts experiments.Options, store *checkpoint.Store) []experiments.CellSpec {
	t.Helper()
	o := opts
	o.Checkpoint = store
	cells := experiments.NewRunner(o).MatrixCells(
		[]experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)},
		experiments.Policies(experiments.PolFIFO),
		experiments.SystemAt(0.5, core.SwapSSD),
	)
	if len(cells) != 1 {
		t.Fatalf("cell enumeration = %d cells, want 1", len(cells))
	}
	return cells
}

func assertNoCorruptArtifacts(t *testing.T, storeDir, queueDir string) {
	t.Helper()
	for _, pat := range []string{
		filepath.Join(storeDir, "*.conflict"),
		filepath.Join(queueDir, "*.poison.json"),
	} {
		if m, _ := filepath.Glob(pat); len(m) != 0 {
			t.Fatalf("corrupt artifacts after chaos: %v", m)
		}
	}
	records, _ := filepath.Glob(filepath.Join(queueDir, "*.lease-*"))
	for _, path := range records {
		var rec struct {
			Owner string `json:"owner"`
		}
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &rec) != nil || rec.Owner == "" {
			t.Fatalf("lease record %s does not decode after chaos: %q, %v", path, data, err)
		}
	}
}

// TestFencedZombieCannotPublish is the tentpole fencing scenario, fully
// deterministic: worker A claims the cell and stalls mid-trial (as a
// SIGSTOPped process would), the clock steps past TTL+MaxSkew, worker B
// steals the lease at a higher epoch, charges the crashed attempt,
// re-executes, and publishes. When A resumes, its publication is fenced
// by epoch at the store — it cannot clobber, double-publish, or write
// any queue state — and the store still holds exactly B's bytes.
func TestFencedZombieCannotPublish(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	clk := newTestClock()
	opts := fastOpts()
	cells := oneCell(t, opts, store)
	mkCfg := func(counters *telemetry.CounterSet) Config {
		return Config{
			Dir:      filepath.Join(dir, "queue"),
			Store:    store,
			TTL:      time.Hour, // heartbeat interval (TTL/3) never fires in-test
			MaxSkew:  time.Minute,
			Backoff:  time.Millisecond,
			Poll:     time.Millisecond,
			Now:      clk.Now,
			Counters: counters,
		}
	}
	newRunner := func() *experiments.Runner {
		o := opts
		o.Checkpoint = store
		return experiments.NewRunner(o)
	}

	// Worker A: stalls on its first PageIn, i.e. mid-trial.
	countersA := telemetry.NewCounterSet()
	qA, err := NewQueue(mkCfg(countersA), cells)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	stallResolve := func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
		w, p, err := RegistryResolve(cell, opts.Scale)
		if err != nil {
			return w, p, err
		}
		mk := p.Make
		p = experiments.PolicySpec{Name: p.Name, Make: func() policy.Policy {
			return &stallingPolicy{Policy: mk(), entered: entered, release: release}
		}}
		return w, p, nil
	}
	passDone := make(chan error, 1)
	go func() {
		_, _, err := qA.Pass(WorkerConfig{Owner: "zombie-A", Runner: newRunner(), Resolve: stallResolve})
		passDone <- err
	}()
	<-entered // A holds the lease, stalled inside its attempt

	// The fleet's view: A stopped heartbeating long past TTL+MaxSkew.
	clk.Advance(2 * time.Hour)

	// Worker B: steals, charges the crashed attempt, requeues, executes.
	countersB := telemetry.NewCounterSet()
	qB, err := NewQueue(mkCfg(countersB), cells)
	if err != nil {
		t.Fatal(err)
	}
	wcB := WorkerConfig{Owner: "thief-B", Runner: newRunner()}
	for i := 0; i < 8 && !store.Has(cells[0].Key); i++ {
		if _, _, err := qB.Pass(wcB); err != nil {
			t.Fatalf("thief pass: %v", err)
		}
		clk.Advance(time.Second) // clear backoff gates
	}
	if !store.Has(cells[0].Key) {
		t.Fatal("thief did not complete the stolen cell")
	}
	if got := countersB.Get("leases.stolen"); got != 1 {
		t.Fatalf("thief leases.stolen = %d, want 1", got)
	}
	if got := countersB.Get("cells.completed"); got != 1 {
		t.Fatalf("thief cells.completed = %d, want 1", got)
	}
	want, _ := store.Get(cells[0].Key)

	// Resume the zombie: it finishes computing, then must be fenced.
	close(release)
	if err := <-passDone; err != nil {
		t.Fatalf("zombie pass returned infrastructure error: %v", err)
	}
	if got := countersA.Get("cells.fenced"); got != 1 {
		t.Fatalf("zombie cells.fenced = %d, want 1", got)
	}
	if got := countersA.Get("publish.fenced"); got < 1 {
		t.Fatalf("zombie publish.fenced = %d, want >= 1 (fence must fire at the store)", got)
	}
	got, _ := store.Get(cells[0].Key)
	if string(got) != string(want) {
		t.Fatal("zombie publication altered the store")
	}
	assertNoCorruptArtifacts(t, store.Dir(), filepath.Join(dir, "queue"))
	for _, info := range qB.Inspect() {
		if info.Status != CellDone {
			t.Fatalf("cell status after zombie resume = %s, want done", info.Status)
		}
	}
}

// TestSkewGraceProtectsRemoteHolder: a worker whose clock runs 90s ahead
// must not steal a remote machine's live lease when MaxSkew covers the
// divergence — and the same worker with no grace demonstrates the
// premature steal the grace exists to prevent.
func TestSkewGraceProtectsRemoteHolder(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	cells := oneCell(t, opts, store)
	hash := checkpoint.KeyHash(cells[0].Key)
	queueDir := filepath.Join(dir, "queue")

	// A "remote machine" holds the cell: claimed at base time, 1min TTL,
	// free-form owner (unparseable on purpose — no fast-reclaim shortcut).
	baseClk := newTestClock()
	remote, err := checkpoint.OpenClaimsWith(queueDir, checkpoint.ClaimOptions{Clock: baseClk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := remote.TryClaim(hash, "remote-machine-worker", time.Minute); err != nil || !ok {
		t.Fatalf("remote claim = %v, %v", ok, err)
	}

	aheadClk := newTestClock()
	aheadClk.Advance(90 * time.Second) // this machine's clock runs ahead
	newRunner := func() *experiments.Runner {
		o := opts
		o.Checkpoint = store
		return experiments.NewRunner(o)
	}
	mkCfg := func(skew time.Duration, counters *telemetry.CounterSet) Config {
		return Config{
			Dir: queueDir, Store: store,
			TTL: time.Minute, MaxSkew: skew,
			Backoff: time.Millisecond, Poll: time.Millisecond,
			Now: aheadClk.Now, Counters: counters,
		}
	}

	// With grace: the live remote lease is respected.
	protected := telemetry.NewCounterSet()
	qProtected, err := NewQueue(mkCfg(2*time.Minute, protected), cells)
	if err != nil {
		t.Fatal(err)
	}
	progressed, _, err := qProtected.Pass(WorkerConfig{Owner: "skewed-worker", Runner: newRunner()})
	if err != nil {
		t.Fatal(err)
	}
	if progressed || store.Has(cells[0].Key) || protected.Get("leases.stolen") != 0 {
		t.Fatalf("skew-protected worker stole a live lease (progressed=%v stolen=%d)",
			progressed, protected.Get("leases.stolen"))
	}

	// Without grace: the same skewed clock steals prematurely — the
	// hazard MaxSkew exists for.
	unprotected := telemetry.NewCounterSet()
	qUnprotected, err := NewQueue(mkCfg(0, unprotected), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && !store.Has(cells[0].Key); i++ {
		if _, _, err := qUnprotected.Pass(WorkerConfig{Owner: "skewed-worker", Runner: newRunner()}); err != nil {
			t.Fatal(err)
		}
		aheadClk.Advance(time.Second)
	}
	if unprotected.Get("leases.stolen") != 1 {
		t.Fatalf("zero-skew worker leases.stolen = %d, want 1", unprotected.Get("leases.stolen"))
	}
	if !store.Has(cells[0].Key) {
		t.Fatal("zero-skew worker did not complete after stealing")
	}
}

// TestTransientIOBlipsConvergeByteIdentical: an NFS-style blip (ESTALE)
// on each cell's first publication fails that attempt. The queue
// requeues it with backoff, the next attempt re-executes and publishes,
// and the matrix converges with zero poisoned cells, one completion per
// cell, and blobs byte-identical to an uninjected serial run. One worker,
// so every retry lands on the runner that saw the failed write.
func TestTransientIOBlipsConvergeByteIdentical(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	var mu sync.Mutex
	blipped := map[string]bool{}
	store.SetHook(func(op, path string) error {
		if op != "store.put-verify" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if blipped[path] {
			return nil
		}
		blipped[path] = true
		return syscall.ESTALE
	})
	cfg := fastCfg(t, store)

	ws := []experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)}
	ps := experiments.Policies(experiments.PolClock, experiments.PolFIFO)
	sys := experiments.SystemAt(0.5, core.SwapSSD)
	sweepOpts := opts
	sweepOpts.Checkpoint = store
	sweepOpts.Veto = Veto(cfg.Dir)
	r := experiments.NewRunner(sweepOpts)
	cells := r.MatrixCells(ws, ps, sys)
	runBatch(t, cfg, 1, BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	for _, p := range Poisoned(cfg.Dir, cells) {
		t.Errorf("publication blip poisoned %s after %d attempt(s), lastErr=%q", p.SeedKey, p.Attempts, p.Err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := cfg.Counters.Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d", got, len(cells))
	}
	if got := cfg.Counters.Get("cells.requeued"); got < 1 {
		t.Fatalf("cells.requeued = %d, want >= 1 (a failed publication must requeue)", got)
	}
	res, err := r.RunMatrix(ws, ps, sys)
	if err != nil {
		t.Fatalf("RunMatrix after publication blips: %v", err)
	}
	if !res.Complete() {
		t.Fatalf("matrix incomplete after publication blips: %+v", res.Failed)
	}

	// Byte-identity: a pristine store populated with no fault injection
	// holds the same blobs under the same keys.
	cleanStore := openStore(t)
	cleanOpts := opts
	cleanOpts.Checkpoint = cleanStore
	if _, err := experiments.NewRunner(cleanOpts).RunMatrix(ws, ps, sys); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		got, ok1 := store.Get(c.Key)
		want, ok2 := cleanStore.Get(c.Key)
		if !ok1 || !ok2 || !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s/%s blob differs from clean serial run (have=%v clean=%v)",
				c.Workload, c.Policy, ok1, ok2)
		}
	}
}

// TestTornLeaseFilesQuarantinedAndConverge: garbage lease records
// pre-seeded at epoch 1 for every cell (torn writes from a dead fleet)
// are taken over at the next epoch, counted, kept byte-for-byte for
// post-mortem, and the run still converges byte-identically.
func TestTornLeaseFilesQuarantinedAndConverge(t *testing.T) {
	opts := fastOpts()
	store := openStore(t)
	cfg := fastCfg(t, store)
	ws := []experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", opts.Scale)}
	ps := experiments.Policies(experiments.PolClock, experiments.PolFIFO)
	sys := experiments.SystemAt(0.5, core.SwapSSD)
	o := opts
	o.Checkpoint = store
	cells := experiments.NewRunner(o).MatrixCells(ws, ps, sys)

	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	garbage := []byte(`{"owner":"dead-fleet","dead`)
	for _, c := range cells {
		torn := filepath.Join(cfg.Dir, checkpoint.KeyHash(c.Key)+".lease-1")
		if err := os.WriteFile(torn, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runBatch(t, cfg, 2, BatchSpec{Cells: cells, NewRunner: newRunnerFn(opts, store)})
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("cell %s/%s unexecuted behind torn lease", c.Workload, c.Policy)
		}
	}
	if got := cfg.Counters.Get("leases.corrupt_quarantined"); got != int64(len(cells)) {
		t.Fatalf("leases.corrupt_quarantined = %d, want %d", got, len(cells))
	}
	for _, c := range cells {
		kept, err := os.ReadFile(filepath.Join(cfg.Dir, checkpoint.KeyHash(c.Key)+".lease-1"))
		if err != nil || string(kept) != string(garbage) {
			t.Fatalf("torn record for %s/%s = %q, %v; want its bytes kept", c.Workload, c.Policy, kept, err)
		}
	}
	if m, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.poison.json")); len(m) != 0 {
		t.Fatalf("torn leases poisoned cells: %v", m)
	}
}
