package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
)

// BatchSpec describes one batch of cells submitted to an Executor.
type BatchSpec struct {
	// Cells is the batch's cell set (re-sorted into claim order).
	Cells []experiments.CellSpec
	// NewRunner builds one worker slot's private Runner for this batch.
	// It must set Options.Checkpoint to the executor's store, and its
	// options must reproduce the cells' cache keys (same trials, scale,
	// seed). Called lazily, at most once per worker slot.
	NewRunner func() *experiments.Runner
	// Resolve optionally overrides registry cell resolution.
	Resolve func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error)
}

// Batch is one submitted batch: a live queue view plus a completion
// signal.
type Batch struct {
	spec  BatchSpec
	queue *Queue

	done     chan struct{}
	doneOnce sync.Once

	// runners holds the per-worker-slot lazily-built runners, so each
	// slot keeps its workload memoization across cells of the batch while
	// slots never share a runner (the Runner is goroutine-safe, but
	// slot-private runners mirror the multi-process executor's
	// shared-nothing discipline).
	runnerMu sync.Mutex
	runners  map[int]*experiments.Runner
}

// Done is closed when every cell of the batch is terminal (done in the
// store, or quarantined). An executor drained before the batch resolves
// never closes it.
func (b *Batch) Done() <-chan struct{} { return b.done }

// Queue exposes the batch's queue view for inspection (Inspect, Snapshot,
// Poisoned).
func (b *Batch) Queue() *Queue { return b.queue }

func (b *Batch) runner(slot int) *experiments.Runner {
	b.runnerMu.Lock()
	defer b.runnerMu.Unlock()
	r, ok := b.runners[slot]
	if !ok {
		r = b.spec.NewRunner()
		b.runners[slot] = r
	}
	return r
}

// Executor is the in-process execution strategy: a long-lived pool of N
// worker goroutines multiplexed over dynamically submitted batches. It
// accepts batches for as long as it lives — the sweep server's scheduling
// substrate; a fixed cell set is one Submit followed by a wait on Done. Workers speak the full on-disk
// queue protocol (leases, attempt records, poison quarantine), so
// executors in different processes sharing a store and queue directory
// cooperate exactly like pagebench worker processes do, and cells shared
// between concurrently submitted batches are executed once (the first
// claimant wins; everyone else observes the store entry).
type Executor struct {
	cfg     Config
	workers int

	mu      sync.Mutex
	batches []*Batch

	// wake holds one token per worker so that Submit can rouse every
	// idle worker at once, rather than leave all but one asleep until
	// their next Poll. A token a busy worker picks up later costs it one
	// extra scan.
	wake  chan struct{}
	quit  chan struct{}
	drain atomic.Bool
	wg    sync.WaitGroup
}

// NewExecutor starts an executor with the given worker count (<=0 means
// 4).
func NewExecutor(cfg Config, workers int) (*Executor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("shard: Config.Store is required")
	}
	if workers <= 0 {
		workers = 4
	}
	e := &Executor{
		cfg:     cfg.withDefaults(),
		workers: workers,
		wake:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// Workers reports the pool size.
func (e *Executor) Workers() int { return e.workers }

// Submit enqueues a batch and wakes every idle worker. A batch whose
// cells are all already terminal resolves immediately (its Done channel
// is closed before Submit returns) without waking anyone. Submitting to a
// drained executor still returns a live queue view, but nothing will
// execute.
func (e *Executor) Submit(spec BatchSpec) (*Batch, error) {
	if spec.NewRunner == nil {
		return nil, fmt.Errorf("shard: BatchSpec.NewRunner is required")
	}
	q, err := NewQueue(e.cfg, spec.Cells)
	if err != nil {
		return nil, err
	}
	b := &Batch{spec: spec, queue: q, done: make(chan struct{}), runners: map[int]*experiments.Runner{}}
	if q.Snapshot().Resolved() {
		b.doneOnce.Do(func() { close(b.done) })
		return b, nil
	}
	e.mu.Lock()
	e.batches = append(e.batches, b)
	e.mu.Unlock()
	for i := 0; i < e.workers; i++ {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
	return b, nil
}

// live returns the current batch list, reaping resolved batches (closing
// their Done channels) along the way.
func (e *Executor) live() []*Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.batches[:0]
	for _, b := range e.batches {
		if b.queue.Snapshot().Resolved() {
			b.doneOnce.Do(func() { close(b.done) })
			continue
		}
		kept = append(kept, b)
	}
	e.batches = kept
	out := make([]*Batch, len(kept))
	copy(out, kept)
	return out
}

// worker is one pool slot: round-robin single scans (Queue.Pass) over
// every live batch, sleeping only when no batch made progress.
func (e *Executor) worker(slot int) {
	defer e.wg.Done()
	// One parseable host/pid/nonce identity per slot: unique within the
	// process, and eligible for same-host fast reclaim if we die.
	owner := checkpoint.NewOwner().String()
	for {
		select {
		case <-e.quit:
			return
		default:
		}
		progressed := false
		var earliest time.Time
		for _, b := range e.live() {
			if e.drain.Load() {
				return
			}
			prog, eb, err := b.queue.Pass(WorkerConfig{
				Owner:   owner,
				Runner:  b.runner(slot),
				Resolve: b.spec.Resolve,
				Drain:   &e.drain,
			})
			if err != nil && e.cfg.Progress != nil {
				fmt.Fprintf(e.cfg.Progress, "shard: executor worker %s: %v\n", owner, err)
			}
			progressed = progressed || prog
			if !eb.IsZero() && (earliest.IsZero() || eb.Before(earliest)) {
				earliest = eb
			}
		}
		// Reap batches the scan completed so waiters unblock promptly.
		e.live()
		if progressed {
			continue
		}
		d := e.cfg.Poll
		if !earliest.IsZero() {
			if until := time.Until(earliest); until > 0 && until < d {
				d = until
			}
		}
		t := time.NewTimer(d)
		select {
		case <-e.quit:
			t.Stop()
			return
		case <-e.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// Drain stops the pool gracefully: no new cells are claimed, in-flight
// cells finish (their results land in the store through the normal
// verified-publication path), and Drain returns once every worker has
// exited. The on-disk queue state stays consistent — a fresh executor
// (or worker process) over the same store and directory resumes exactly
// where this one stopped. Idempotent.
func (e *Executor) Drain() {
	if e.drain.CompareAndSwap(false, true) {
		close(e.quit)
	}
	e.wg.Wait()
	// Reap anything the final passes resolved.
	e.live()
}
