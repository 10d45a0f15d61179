package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/telemetry"
)

// chaosEnvDir, when set, turns this test binary into a shard worker over
// the given directory — the helper-process half of the kill-storm and
// SIGSTOP-fence tests.
const chaosEnvDir = "SHARD_CHAOS_DIR"

// chaosEnvSingle, when "1", restricts the helper worker to the first
// enumerated cell — the SIGSTOP-fence test wants exactly one cell so the
// paused worker and the stealing parent contend on the same lease.
const chaosEnvSingle = "SHARD_CHAOS_SINGLE"

// chaosEnvCounters, when set, makes the helper worker dump its counter
// set ("name value" lines) to the given path on clean exit, so the
// parent can assert on fence counters observed inside the worker.
const chaosEnvCounters = "SHARD_CHAOS_COUNTERS"

func TestMain(m *testing.M) {
	if dir := os.Getenv(chaosEnvDir); dir != "" {
		os.Exit(chaosWorkerMain(dir))
	}
	os.Exit(m.Run())
}

// chaosOpts are the fixed methodology knobs both the coordinator-side
// test and the helper workers derive the cell set from; they must agree
// or the keys would not line up (exactly the property pagebench gets by
// passing identical flags to its workers).
func chaosOpts() experiments.Options {
	return experiments.Options{Trials: 2, Scale: 0.2, Seed: 0xABC, Parallelism: 1}
}

func chaosCfg(dir string, store *checkpoint.Store) Config {
	return Config{
		Dir:     filepath.Join(dir, "queue"),
		Store:   store,
		TTL:     400 * time.Millisecond,
		MaxSkew: 100 * time.Millisecond,
		Backoff: 20 * time.Millisecond,
		Poll:    20 * time.Millisecond,
	}
}

// chaosWorkerMain is the body of one spawned worker process: enumerate
// the same cells from the same knobs, join the on-disk queue, drain on
// SIGINT/SIGTERM, exit 0 when the queue is resolved.
func chaosWorkerMain(dir string) int {
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cells, err := experiments.CellsFor(chaosOpts(), experiments.Figures["fig1"])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if os.Getenv(chaosEnvSingle) == "1" {
		cells = cells[:1]
	}
	cfg := chaosCfg(dir, store)
	cfg.Counters = telemetry.NewCounterSet()
	q, err := NewQueue(cfg, cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var drain atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		drain.Store(true)
	}()
	opts := chaosOpts()
	opts.Checkpoint = store
	if err := q.RunWorker(WorkerConfig{Runner: experiments.NewRunner(opts), Drain: &drain}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if path := os.Getenv(chaosEnvCounters); path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := cfg.Counters.WriteText(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// TestKillStormConvergesByteIdentical is the tentpole acceptance test:
// three worker processes chew through fig1's cells while a kill storm
// SIGKILLs live workers mid-run; the coordinator respawns them, expired
// leases are stolen, crashed attempts are requeued, and the run still
// converges with zero poisoned cells and a figure byte-identical to a
// fresh serial run.
func TestKillStormConvergesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.CellsFor(chaosOpts(), experiments.Figures["fig1"])
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosCfg(dir, store)
	cfg.Counters = telemetry.NewCounterSet()

	var mu sync.Mutex
	var procs []*os.Process
	spawn := func(slot int) (Handle, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), chaosEnvDir+"="+dir)
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		mu.Lock()
		procs = append(procs, cmd.Process)
		mu.Unlock()
		return NewCmdHandle(cmd), nil
	}

	co := &Coordinator{Cfg: cfg, Cells: cells, Workers: 3, Spawn: spawn}

	// Kill storm: SIGKILL two live workers mid-run. Process.Kill on an
	// already-exited worker errors and is not counted, so each delivered
	// kill really tore down a running worker without any cleanup.
	stop := make(chan struct{})
	var kills atomic.Int64
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		next := 0
		for delay := 150 * time.Millisecond; kills.Load() < 2; delay = 250 * time.Millisecond {
			select {
			case <-stop:
				return
			case <-time.After(delay):
			}
			mu.Lock()
			for ; next < len(procs); next++ {
				if procs[next].Kill() == nil {
					kills.Add(1)
					break
				}
			}
			mu.Unlock()
		}
	}()

	rep, err := co.Run()
	close(stop)
	stormWG.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v (report %+v)", err, rep)
	}
	if !rep.Progress.Resolved() {
		t.Fatalf("queue not resolved: %+v", rep.Progress)
	}
	if len(rep.Poisoned) != 0 {
		t.Fatalf("kill storm poisoned cells: %+v", rep.Poisoned)
	}
	// Requeue/expiry counters live in the worker processes' own sets; the
	// coordinator-side evidence of the storm is the restart count.
	t.Logf("kill storm: %d kills delivered, %d worker restarts", kills.Load(), rep.Restarts)
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("cell %s/%s missing from the store after convergence", c.Workload, c.Policy)
		}
	}

	shardOpts := chaosOpts()
	shardOpts.Checkpoint = store
	shardOpts.Veto = Veto(cfg.Dir)
	sharded := renderFig1(t, shardOpts)
	serial := renderFig1(t, chaosOpts())
	if sharded != serial {
		t.Fatalf("kill-storm figure differs from a fresh serial run:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, sharded)
	}
}

// readCounterDump parses a CounterSet.WriteText dump ("name value"
// lines) written by a helper worker process.
func readCounterDump(t *testing.T, path string) map[string]int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading worker counter dump: %v", err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		var name string
		var val int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &val); err == nil {
			out[name] = val
		}
	}
	return out
}

// TestSigstopZombieFencedAcrossProcesses is the multi-process half of the
// fencing story: a real worker process is SIGSTOPped mid-attempt (the
// harshest zombie — no Go-level cooperation, the whole process freezes,
// heartbeats included), its lease expires and is stolen by the parent,
// and when the process is SIGCONTed it finishes computing but its
// publication is fenced by epoch: the store keeps exactly the thief's
// bytes, no conflict sidecars appear, and the worker itself observes the
// fence in its own counters before exiting cleanly.
func TestSigstopZombieFencedAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.CellsFor(chaosOpts(), experiments.Figures["fig1"])
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:1] // same restriction the helper applies under chaosEnvSingle
	cfg := chaosCfg(dir, store)
	cfg.Counters = telemetry.NewCounterSet()
	countersPath := filepath.Join(dir, "worker-counters.txt")

	var stderr strings.Builder
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		chaosEnvDir+"="+dir, chaosEnvSingle+"=1", chaosEnvCounters+"="+countersPath)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the worker has recorded its attempt and is executing the
	// trial, so the SIGSTOP lands mid-computation.
	q, err := NewQueue(cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		info := q.Inspect()[0]
		if info.Status == CellRunning && info.Attempts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never started executing (status %s, stderr: %s)", info.Status, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let it get into the trial proper, but stop it well before the cell
	// completes: the whole cell simulates in about 40–50 ms on a 2-vCPU
	// host, and a worker that publishes before the stop leaves nothing to
	// steal.
	time.Sleep(5 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	// The frozen worker stops heartbeating; once real time passes
	// TTL+MaxSkew the parent steals the lease, charges the crashed
	// attempt, requeues, and completes the cell itself.
	opts := chaosOpts()
	opts.Checkpoint = store
	wc := WorkerConfig{Owner: "parent-thief", Runner: experiments.NewRunner(opts)}
	deadline = time.Now().Add(30 * time.Second)
	for !store.Has(cells[0].Key) {
		if time.Now().After(deadline) {
			t.Fatal("parent failed to steal and complete the cell")
		}
		if _, _, err := q.Pass(wc); err != nil {
			t.Fatalf("parent pass: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := cfg.Counters.Get("leases.stolen"); got != 1 {
		t.Fatalf("parent leases.stolen = %d, want 1", got)
	}
	want, _ := store.Get(cells[0].Key)

	// Thaw the zombie. It finishes the stalled trial, is fenced at
	// publication, observes the store entry, and exits 0.
	if err := cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	select {
	case err := <-waitc:
		if err != nil {
			t.Fatalf("worker exit after fence: %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("resumed worker did not exit")
	}

	workerCounters := readCounterDump(t, countersPath)
	if workerCounters["cells.fenced"] < 1 {
		t.Fatalf("worker cells.fenced = %d, want >= 1 (counters: %v)", workerCounters["cells.fenced"], workerCounters)
	}
	t.Logf("worker fence counters: cells.fenced=%d publish.fenced=%d leases.lost=%d",
		workerCounters["cells.fenced"], workerCounters["publish.fenced"], workerCounters["leases.lost"])

	got, _ := store.Get(cells[0].Key)
	if string(got) != string(want) {
		t.Fatal("resumed zombie altered the published bytes")
	}
	if m, _ := filepath.Glob(filepath.Join(store.Dir(), "*.conflict")); len(m) != 0 {
		t.Fatalf("fence let a conflict sidecar through: %v", m)
	}
	if m, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.poison.json")); len(m) != 0 {
		t.Fatalf("SIGSTOP zombie poisoned the cell: %v", m)
	}
	if info := q.Inspect()[0]; info.Status != CellDone {
		t.Fatalf("cell status = %s, want done", info.Status)
	}
}
