package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"mglrusim/internal/experiments"
)

// Handle supervises one spawned worker.
type Handle interface {
	// Signal delivers a signal to the worker (drain requests).
	Signal(sig os.Signal) error
	// Wait blocks until the worker exits, returning its exit error.
	Wait() error
}

// maxRestarts bounds respawns per worker slot.
const maxRestarts = 8

// Coordinator runs a cell set to completion across N supervised worker
// processes. It executes no cells itself: workers self-schedule through
// the on-disk queue, and the coordinator's jobs are spawning, restarting
// crashed workers (bounded per slot), progress reporting, and drain.
type Coordinator struct {
	Cfg   Config
	Cells []experiments.CellSpec
	// Workers is the number of concurrently supervised worker slots.
	Workers int
	// Spawn launches the worker for a slot (normally CmdSpawner re-invoking
	// pagebench -worker).
	Spawn func(slot int) (Handle, error)

	mu       sync.Mutex
	handles  map[int]Handle
	draining bool
}

// Report summarizes a coordinator run.
type Report struct {
	Progress Progress
	Poisoned []PoisonRecord
	Restarts int64
}

// Drain asks every live worker to finish its in-flight cell and exit
// (SIGTERM), and stops respawning. Safe from a signal handler goroutine.
func (co *Coordinator) Drain() {
	co.mu.Lock()
	co.draining = true
	for _, h := range co.handles {
		h.Signal(os.Interrupt)
	}
	co.mu.Unlock()
}

func (co *Coordinator) isDraining() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.draining
}

// Run supervises the fleet until the queue is fully resolved (or drained).
// The returned error is non-nil only when the queue cannot be resolved:
// every slot exhausted its restart budget with cells still pending.
func (co *Coordinator) Run() (Report, error) {
	if co.Spawn == nil {
		return Report{}, fmt.Errorf("shard: Coordinator.Spawn is required")
	}
	cfg := co.Cfg.withDefaults()
	q, err := NewQueue(cfg, co.Cells)
	if err != nil {
		return Report{}, err
	}
	workers := co.Workers
	if workers <= 0 {
		workers = 1
	}
	co.mu.Lock()
	co.handles = make(map[int]Handle, workers)
	co.mu.Unlock()

	var wg sync.WaitGroup
	var restarts int64
	for slot := 0; slot < workers; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spawned := 0; ; spawned++ {
				if co.isDraining() || q.Snapshot().Resolved() {
					return
				}
				if spawned > maxRestarts {
					if cfg.Progress != nil {
						fmt.Fprintf(cfg.Progress, "shard: worker slot %d exceeded %d restarts, giving up the slot\n", slot, maxRestarts)
					}
					return
				}
				h, err := co.Spawn(slot)
				if err != nil {
					if cfg.Progress != nil {
						fmt.Fprintf(cfg.Progress, "shard: spawn worker %d: %v\n", slot, err)
					}
					time.Sleep(cfg.Poll)
					continue
				}
				co.mu.Lock()
				co.handles[slot] = h
				draining := co.draining
				co.mu.Unlock()
				if draining {
					h.Signal(os.Interrupt)
				}
				if spawned > 0 {
					cfg.Counters.Add("workers.restarted", 1)
					co.mu.Lock()
					restarts++
					co.mu.Unlock()
				}
				err = h.Wait()
				co.mu.Lock()
				delete(co.handles, slot)
				co.mu.Unlock()
				if err == nil {
					// Clean exit: the worker saw the queue resolved (or
					// drained). Stop supervising this slot.
					return
				}
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "shard: worker %d died (%v), respawning\n", slot, err)
				}
			}
		}()
	}

	// Progress monitor: one census line per poll period while workers run.
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	if cfg.Progress != nil {
		monitorWG.Add(1)
		go func() {
			defer monitorWG.Done()
			t := time.NewTicker(5 * cfg.Poll)
			defer t.Stop()
			last := Progress{Done: -1}
			for {
				select {
				case <-monitorStop:
					return
				case <-t.C:
					if p := q.Snapshot(); p != last {
						fmt.Fprintf(cfg.Progress, "shard: %d/%d cells done, %d poisoned\n", p.Done, p.Total, p.Poisoned)
						last = p
					}
				}
			}
		}()
	}

	wg.Wait()
	close(monitorStop)
	monitorWG.Wait()

	rep := Report{Progress: q.Snapshot(), Poisoned: q.Poisoned(), Restarts: restarts}
	if !rep.Progress.Resolved() && !co.isDraining() {
		return rep, fmt.Errorf("shard: queue unresolved after every worker slot gave up (%d/%d done, %d poisoned)",
			rep.Progress.Done, rep.Progress.Total, rep.Progress.Poisoned)
	}
	return rep, nil
}

// cmdHandle adapts exec.Cmd to Handle.
type cmdHandle struct{ cmd *exec.Cmd }

func (h cmdHandle) Signal(sig os.Signal) error { return h.cmd.Process.Signal(sig) }
func (h cmdHandle) Wait() error                { return h.cmd.Wait() }

// NewCmdHandle wraps a started exec.Cmd as a Handle (exported for tests
// that spawn helper processes themselves).
func NewCmdHandle(cmd *exec.Cmd) Handle { return cmdHandle{cmd: cmd} }

// CmdSpawner returns a Spawn function that launches `bin args...` per
// slot with the given stderr sink — pagebench uses it to re-invoke itself
// in -worker mode.
func CmdSpawner(bin string, args []string, stderr io.Writer) func(slot int) (Handle, error) {
	return func(slot int) (Handle, error) {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmdHandle{cmd: cmd}, nil
	}
}
