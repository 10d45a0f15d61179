package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/telemetry"
)

// Queue is one shard work queue: an ordered cell list over a shared
// store + lease directory. Queues are cheap, stateless views — every
// process (and every worker goroutine) builds its own from the same
// Config and cell enumeration; all coordination lives on disk.
type Queue struct {
	cfg    Config
	claims *checkpoint.ClaimDir
	cells  []experiments.CellSpec
	hashes []string
}

// NewQueue opens a queue over cells (re-sorted into claim order so every
// process agrees regardless of input order).
func NewQueue(cfg Config, cells []experiments.CellSpec) (*Queue, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("shard: Config.Store is required")
	}
	claims, err := checkpoint.OpenClaimsWith(cfg.Dir, checkpoint.ClaimOptions{
		Clock:   cfg.Now,
		MaxSkew: cfg.MaxSkew,
		Observe: leaseObserver(cfg.Counters),
	})
	if err != nil {
		return nil, err
	}
	sorted := make([]experiments.CellSpec, len(cells))
	copy(sorted, cells)
	experiments.SortCells(sorted)
	hashes := make([]string, len(sorted))
	for i, c := range sorted {
		hashes[i] = checkpoint.KeyHash(c.Key)
	}
	return &Queue{cfg: cfg, claims: claims, cells: sorted, hashes: hashes}, nil
}

// leaseObserver maps coordination-layer events onto the shard telemetry
// counters operators read from /v1/stats and pagebench summaries.
func leaseObserver(counters *telemetry.CounterSet) func(event string) {
	return func(event string) {
		switch event {
		case checkpoint.EvSteal:
			counters.Add("leases.stolen", 1)
		case checkpoint.EvFastReclaim:
			counters.Add("leases.fast_reclaimed", 1)
		case checkpoint.EvCorrupt:
			counters.Add("leases.corrupt_quarantined", 1)
		case checkpoint.EvReleaseLost:
			counters.Add("leases.release_lost", 1)
		}
	}
}

// Cells returns the queue's cell list in claim order.
func (q *Queue) Cells() []experiments.CellSpec { return q.cells }

// now reads the queue's (possibly injected) clock.
func (q *Queue) now() time.Time { return q.cfg.Now() }

// Progress is a point-in-time queue census.
type Progress struct {
	Done, Poisoned, Total int
}

// Resolved reports whether every cell has reached a terminal state.
func (p Progress) Resolved() bool { return p.Done+p.Poisoned == p.Total }

// Snapshot counts terminal cells by probing the store and poison records.
func (q *Queue) Snapshot() Progress {
	p := Progress{Total: len(q.cells)}
	for i, c := range q.cells {
		if q.cfg.Store.Has(c.Key) {
			p.Done++
		} else if _, ok := readPoison(q.cfg.Dir, q.hashes[i]); ok {
			p.Poisoned++
		}
	}
	return p
}

// Poisoned lists this queue's quarantine records.
func (q *Queue) Poisoned() []PoisonRecord { return Poisoned(q.cfg.Dir, q.cells) }

func (q *Queue) readState(i int) cellState {
	st := cellState{Key: q.cells[i].Key, SeedKey: q.cells[i].SeedKey}
	data, err := os.ReadFile(cellStatePath(q.cfg.Dir, q.hashes[i]))
	if err != nil {
		return st
	}
	var read cellState
	if json.Unmarshal(data, &read) == nil && read.Key == st.Key {
		return read
	}
	return st
}

func (q *Queue) writeState(i int, st cellState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return checkpoint.WriteFileDurable(cellStatePath(q.cfg.Dir, q.hashes[i]), data)
}

func (q *Queue) writePoison(i int, rec PoisonRecord) {
	data, err := json.Marshal(rec)
	if err == nil {
		err = checkpoint.WriteFileDurable(poisonPath(q.cfg.Dir, q.hashes[i]), data)
	}
	if err != nil && q.cfg.Progress != nil {
		fmt.Fprintf(q.cfg.Progress, "shard: poison record for %s failed: %v\n", rec.SeedKey, err)
	}
	q.cfg.Counters.Add("cells.poisoned", 1)
	if q.cfg.Progress != nil {
		fmt.Fprintf(q.cfg.Progress, "shard: quarantined %-40s after %d attempt(s): %s\n",
			rec.SeedKey, rec.Attempts, rec.Err)
	}
}

// backoff returns the requeue delay after the given number of recorded
// attempts: Backoff * 2^(attempts-1), capped at 32x.
func (q *Queue) backoff(attempts int) time.Duration {
	d := q.cfg.Backoff
	for i := 1; i < attempts && d < 32*q.cfg.Backoff; i++ {
		d *= 2
	}
	return d
}

// CellStatus is the externally-visible lifecycle state of one queue cell,
// derived entirely from the on-disk protocol (store entry, poison record,
// lease, attempt record) — every process observing the queue derives the
// same answer.
type CellStatus string

// Cell lifecycle states, roughly in progression order.
const (
	// CellQueued: no terminal state, no attempts recorded, not claimed.
	CellQueued CellStatus = "queued"
	// CellRunning: a live lease holder is executing an attempt.
	CellRunning CellStatus = "running"
	// CellFailed: at least one attempt failed or crashed; the cell is
	// awaiting its backoff gate and will be retried.
	CellFailed CellStatus = "failed"
	// CellDone: the result is in the store.
	CellDone CellStatus = "done"
	// CellQuarantined: the attempt budget is spent (or determinism was
	// violated); a poison record blocks re-execution.
	CellQuarantined CellStatus = "quarantined"
)

// CellInfo is one cell's inspection snapshot.
type CellInfo struct {
	Cell     experiments.CellSpec
	Status   CellStatus
	Attempts int
	// Owner is the live lease holder while running.
	Owner string
	// LastErr is the most recent attempt failure (or the quarantine
	// reason).
	LastErr string
}

// Inspect derives every cell's current status from the on-disk protocol,
// in claim order. It is a read-only census: safe to call from any process
// at any time, including while workers execute.
func (q *Queue) Inspect() []CellInfo {
	out := make([]CellInfo, len(q.cells))
	for i, c := range q.cells {
		info := CellInfo{Cell: c, Status: CellQueued}
		switch {
		case q.cfg.Store.Has(c.Key):
			info.Status = CellDone
		default:
			if rec, ok := readPoison(q.cfg.Dir, q.hashes[i]); ok {
				info.Status = CellQuarantined
				info.Attempts = rec.Attempts
				info.LastErr = rec.Err
				break
			}
			st := q.readState(i)
			info.Attempts = st.Attempts
			info.LastErr = st.LastErr
			if owner, live, ok := q.claims.Holder(q.hashes[i]); ok && live {
				info.Status = CellRunning
				info.Owner = owner
			} else if st.Attempts > 0 {
				info.Status = CellFailed
			}
		}
		out[i] = info
	}
	return out
}

// SimulateCrashedAttempt writes the on-disk state a worker SIGKILLed
// mid-execution leaves behind once its lease expires: an attempt record
// still marked running with no live lease. The next claimant charges the
// crashed attempt (leases.expired), requeues the cell with backoff
// (cells.requeued), and re-executes it — the exact recovery path a real
// crash takes. Test helper for crash-recovery end-to-end suites.
func SimulateCrashedAttempt(dir string, cell experiments.CellSpec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := cellState{Key: cell.Key, SeedKey: cell.SeedKey, Attempts: 1, Running: true}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return checkpoint.WriteFileDurable(cellStatePath(dir, checkpoint.KeyHash(cell.Key)), data)
}

// WorkerConfig identifies one executing worker.
type WorkerConfig struct {
	// Owner is the lease-holder identity (must be unique per worker;
	// default a fresh checkpoint.NewOwner "host/pid/nonce" identity,
	// which also enables same-host fast reclaim when this process dies).
	Owner string
	// Runner executes cells. It must share the queue's Store via
	// Options.Checkpoint — the runner's normal checkpoint path is how
	// results are published.
	Runner *experiments.Runner
	// Resolve maps a cell back to runnable specs. Defaults to the
	// registry (WorkloadByName/PolicyByName at the runner's scale).
	Resolve func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error)
	// Drain, when non-nil and set, stops the worker from claiming new
	// cells; RunWorker returns after the in-flight cell (the
	// SIGTERM/SIGINT drain flag).
	Drain *atomic.Bool
}

func (wc WorkerConfig) withDefaults(scale float64) WorkerConfig {
	if wc.Owner == "" {
		wc.Owner = checkpoint.NewOwner().String()
	}
	if wc.Resolve == nil {
		wc.Resolve = func(cell experiments.CellSpec) (experiments.WorkloadSpec, experiments.PolicySpec, error) {
			return RegistryResolve(cell, scale)
		}
	}
	return wc
}

// RegistryResolve maps a cell to specs via the experiments registry — the
// default for cells enumerated from registered figures. The workload is
// laid out with the cell's own region fanout so the spec matches the
// system config the cell will run under.
func RegistryResolve(cell experiments.CellSpec, scale float64) (w experiments.WorkloadSpec, p experiments.PolicySpec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: cell %s not resolvable from the registry: %v", cell.SeedKey, r)
		}
	}()
	return experiments.WorkloadByNameAt(cell.Workload, scale, cell.System.RegionPTEs),
		experiments.PolicyByName(cell.Policy), nil
}

// RunWorker processes the queue until every cell is terminal (done or
// poisoned) or the drain flag is raised. It is the body of a `pagebench
// -worker` process, and equally runnable as a goroutine. The
// returned error covers infrastructure failures only (unreachable queue
// directory); cell failures are recorded in the queue, never returned.
func (q *Queue) RunWorker(wc WorkerConfig) error {
	if wc.Runner == nil {
		return fmt.Errorf("shard: WorkerConfig.Runner is required")
	}
	wc = wc.withDefaults(wc.Runner.Options().Scale)
	for {
		if wc.Drain != nil && wc.Drain.Load() {
			return nil
		}
		progressed, earliest, err := q.pass(wc)
		if err != nil {
			return err
		}
		if q.Snapshot().Resolved() {
			return nil
		}
		if progressed {
			continue
		}
		// Nothing runnable: someone else holds the remaining cells, or
		// they are backing off. Sleep until the earliest backoff gate (or
		// one poll interval) and rescan.
		d := q.cfg.Poll
		if !earliest.IsZero() {
			if until := time.Until(earliest); until > 0 && until < d {
				d = until
			}
		}
		time.Sleep(d)
	}
}

// Pass makes one scan over the cell list as the given worker, executing
// at most every runnable cell once, and returns — the single-scan
// building block for embedding the queue in a long-lived pool that
// multiplexes workers over many queues (Executor). It reports whether any
// cell changed state and the earliest backoff gate observed. Unlike
// RunWorker it never sleeps and never loops.
func (q *Queue) Pass(wc WorkerConfig) (progressed bool, earliest time.Time, err error) {
	if wc.Runner == nil {
		return false, time.Time{}, fmt.Errorf("shard: WorkerConfig.Runner is required")
	}
	return q.pass(wc.withDefaults(wc.Runner.Options().Scale))
}

// pass makes one scan over the cell list, executing at most every
// runnable cell once. It reports whether any cell changed state and the
// earliest backoff gate observed.
func (q *Queue) pass(wc WorkerConfig) (progressed bool, earliest time.Time, err error) {
	for i := range q.cells {
		if wc.Drain != nil && wc.Drain.Load() {
			return progressed, earliest, nil
		}
		cell := q.cells[i]
		if q.cfg.Store.Has(cell.Key) {
			continue
		}
		if _, ok := readPoison(q.cfg.Dir, q.hashes[i]); ok {
			continue
		}
		// Cheap pre-claim gate; re-read authoritatively under the lease.
		if st := q.readState(i); !st.Running && st.NotBefore > 0 {
			if nb := time.Unix(0, st.NotBefore); q.now().Before(nb) {
				if earliest.IsZero() || nb.Before(earliest) {
					earliest = nb
				}
				continue
			}
		}
		lease, ok, cerr := q.claims.TryClaim(q.hashes[i], wc.Owner, q.cfg.TTL)
		if cerr != nil {
			return progressed, earliest, cerr
		}
		if !ok {
			continue // held by a live worker
		}
		changed := q.runCell(wc, i, lease)
		lease.Release()
		progressed = progressed || changed
	}
	return progressed, earliest, nil
}

// runCell handles one claimed cell: crash accounting, backoff gating,
// execution, and terminal-state writes. Returns whether the cell's state
// changed.
func (q *Queue) runCell(wc WorkerConfig, i int, lease *checkpoint.Lease) bool {
	cell := q.cells[i]
	// Re-check terminal states now that we hold the lease: another worker
	// may have finished or poisoned the cell between our scan and claim.
	if q.cfg.Store.Has(cell.Key) {
		return false
	}
	if _, ok := readPoison(q.cfg.Dir, q.hashes[i]); ok {
		return false
	}
	st := q.readState(i)
	if st.Running {
		// The previous holder died mid-attempt: its lease expired with the
		// running flag still set. Charge the crashed attempt and requeue
		// with backoff — or quarantine when the budget is spent.
		q.cfg.Counters.Add("leases.expired", 1)
		lastErr := st.LastErr
		if lastErr == "" {
			lastErr = "worker crashed or stopped heartbeating mid-attempt"
		}
		if st.Attempts >= q.cfg.Attempts {
			q.writePoison(i, PoisonRecord{Key: cell.Key, SeedKey: cell.SeedKey,
				Attempts: st.Attempts, Err: lastErr})
			return true
		}
		st.Running = false
		st.NotBefore = q.now().Add(q.backoff(st.Attempts)).UnixNano()
		if err := q.writeState(i, st); err == nil {
			q.cfg.Counters.Add("cells.requeued", 1)
			if q.cfg.Progress != nil {
				fmt.Fprintf(q.cfg.Progress, "shard: requeued %-40s (attempt %d crashed)\n", cell.SeedKey, st.Attempts)
			}
		}
		return true
	}
	if st.NotBefore > 0 && q.now().Before(time.Unix(0, st.NotBefore)) {
		return false // still backing off; earliest-gate handled by the scan
	}
	if st.Attempts >= q.cfg.Attempts {
		// Budget exhausted by clean failures (poisoning normally happens at
		// failure time; this is the belt-and-suspenders path for a worker
		// that died exactly between the state write and the poison write).
		q.writePoison(i, PoisonRecord{Key: cell.Key, SeedKey: cell.SeedKey,
			Attempts: st.Attempts, Err: st.LastErr})
		return true
	}

	// Execute one attempt under the lease, with heartbeats.
	st.Attempts++
	st.Running = true
	if err := q.writeState(i, st); err != nil {
		return false // cannot record the attempt; leave the cell for others
	}
	q.cfg.Counters.Add("leases.held", 1)
	if q.cfg.Progress != nil {
		fmt.Fprintf(q.cfg.Progress, "shard: %s executing %-40s (attempt %d, cost %.1f)\n",
			wc.Owner, cell.SeedKey, st.Attempts, cell.Cost)
	}
	runErr := q.execute(wc, cell, lease)

	// A fenced outcome — rejected at publication, or a lease found
	// superseded now — means a newer claim owns this cell and its
	// records: make no state writes, no poison, no requeue. The
	// successor does its own accounting; our attempt is void. (A lease
	// whose Verify fails on plain I/O errors lands here too, on purpose:
	// when we cannot prove we still own the records, not touching them
	// is the only safe move.)
	if errors.Is(runErr, checkpoint.ErrFenced) || lease.Verify() != nil {
		q.cfg.Counters.Add("cells.fenced", 1)
		if q.cfg.Progress != nil {
			fmt.Fprintf(q.cfg.Progress, "shard: %s fenced on %-40s (lease superseded mid-attempt)\n",
				wc.Owner, cell.SeedKey)
		}
		return false
	}

	if runErr == nil {
		st.Running = false
		st.LastErr = ""
		st.NotBefore = 0
		q.writeState(i, st)
		q.cfg.Counters.Add("cells.completed", 1)
		return true
	}
	var conflict *checkpoint.ConflictError
	switch {
	case errors.As(runErr, &conflict):
		// Determinism violation: immediate quarantine, both payloads kept.
		q.cfg.Counters.Add("determinism.violations", 1)
		q.writePoison(i, PoisonRecord{Key: cell.Key, SeedKey: cell.SeedKey,
			Attempts: st.Attempts, Err: runErr.Error(),
			Artifacts: []string{conflict.Path, conflict.ConflictPath}})
	case st.Attempts >= q.cfg.Attempts:
		q.writePoison(i, PoisonRecord{Key: cell.Key, SeedKey: cell.SeedKey,
			Attempts: st.Attempts, Err: runErr.Error()})
	default:
		st.Running = false
		st.LastErr = runErr.Error()
		st.NotBefore = q.now().Add(q.backoff(st.Attempts)).UnixNano()
		q.writeState(i, st)
		q.cfg.Counters.Add("cells.requeued", 1)
		if q.cfg.Progress != nil {
			fmt.Fprintf(q.cfg.Progress, "shard: %-40s attempt %d failed, backing off: %v\n",
				cell.SeedKey, st.Attempts, runErr)
		}
	}
	return true
}

// execute runs one cell through the worker's runner while a heartbeat
// goroutine renews the lease at TTL/3, with the runner's checkpoint
// publication fenced on the lease epoch: a worker that stalls past its
// TTL and is stolen from can finish computing (the simulation has no
// cancellation point, and the waste is bounded by one cell), but its
// result is rejected at the store by Lease.Verify — it can neither
// clobber nor double-publish, regardless of what bytes it produced.
func (q *Queue) execute(wc WorkerConfig, cell experiments.CellSpec, lease *checkpoint.Lease) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hb := q.cfg.TTL / 3
		if hb < 10*time.Millisecond {
			hb = 10 * time.Millisecond
		}
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := lease.Renew(q.cfg.TTL); err != nil {
					q.cfg.Counters.Add("leases.lost", 1)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	w, p, err := wc.Resolve(cell)
	if err != nil {
		return err
	}
	// Bind this cell's publication to our claim epoch. The fence is
	// scoped by key so the runner's other series (shared caches, nested
	// figure reruns) publish unfenced; it is cleared before the lease is
	// released. Safe because each worker slot owns its runner and
	// executes one cell at a time.
	key := cell.Key
	wc.Runner.SetFence(func(k string) error {
		if k != key {
			return nil
		}
		if verr := lease.Verify(); verr != nil {
			if errors.Is(verr, checkpoint.ErrFenced) {
				q.cfg.Counters.Add("publish.fenced", 1)
			}
			return verr
		}
		return nil
	})
	defer wc.Runner.SetFence(nil)
	_, err = wc.Runner.Run(w, p, cell.System)
	return err
}
