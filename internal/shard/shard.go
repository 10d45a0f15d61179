// Package shard is the crash-tolerant multi-process executor for the
// experiment matrix: a supervised work queue that runs figure/extension
// cells across N worker processes coordinated purely through the shared
// filesystem — the internal/checkpoint content-addressed store plus a
// small on-disk lease directory. No network, no daemon.
//
// Protocol. Every cell (one (workload, policy, system) series) is
// identified by its checkpoint key; its hash names the files it owns in
// the queue directory:
//
//	<hash>.lease-<epoch> immutable lease records, one per claim, steal or
//	                     release (checkpoint.ClaimDir)
//	<hash>.hb-<epoch>    heartbeat extending that epoch's claim
//	<hash>.cell.json     attempt record, written only under the lease
//	<hash>.poison.json   quarantine record for cells past their budget
//
// and the store entry itself is the "done" marker. A worker scans the cell
// list in claim order (cost-descending LPT bin packing), claims the
// first runnable cell, heartbeats the lease while executing, and writes
// the result through the runner's normal checkpoint path. A worker that
// crashes, is SIGKILLed, or stops heartbeating simply stops renewing: the
// lease expires, the next claimant observes the attempt record still
// marked running, charges the crashed attempt, and requeues the cell with
// exponential backoff — or quarantines it once the attempt budget is
// spent. Execution is at-least-once; it is safe because every claim
// carries a monotonic fencing epoch that publication re-checks
// (checkpoint.PutVerifyFenced over Lease.Verify): a worker resumed after
// its lease was stolen is fenced at the store, and the cells it thought
// it owned are accounted by the successor. Results are additionally
// byte-deterministic and content-addressed, so legitimate duplicate
// completions are verified identical and a mismatch surfaces as a
// determinism violation with both payloads preserved. For fleets of
// machines over one shared filesystem, Config.MaxSkew grants expiring
// leases a clock-skew grace and owner identities are host/pid/nonce
// (dead same-host holders are reclaimed fast). The attempt budget is the
// only retry: a transient NFS blip (ESTALE, EIO) on a lease operation
// ends the worker's scan, and one on publication fails the attempt,
// which is requeued with backoff like any other failure.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/telemetry"
)

// Config shapes one shard queue. Store and Dir must be shared by every
// participating process (coordinator and workers); everything else is
// per-process.
type Config struct {
	// Dir is the lease/queue directory. Keep it on the same filesystem as
	// the store (pagebench uses <checkpoint>/shard).
	Dir string
	// Store is the shared content-addressed result store.
	Store *checkpoint.Store
	// TTL is the lease time-to-live. A worker heartbeats at TTL/3, so TTL
	// bounds how long a crashed worker's cell stays stuck. Default 10s.
	TTL time.Duration
	// Attempts is the per-cell execution budget before quarantine.
	// Default 5.
	Attempts int
	// Backoff is the base requeue delay, doubled per recorded attempt.
	// Default 250ms.
	Backoff time.Duration
	// Poll is the idle rescan interval when no cell is runnable.
	// Default 200ms.
	Poll time.Duration
	// MaxSkew is the clock-skew grace for lease stealing: an expired
	// lease is only stolen once the local clock reads deadline+MaxSkew,
	// tolerating holders on machines whose clocks run up to MaxSkew
	// behind this one. Zero (the default) preserves single-machine
	// semantics; set it when workers span machines over a shared
	// filesystem (pagebench -max-skew).
	MaxSkew time.Duration
	// Now, when non-nil, overrides the wall clock for lease deadlines,
	// steal decisions, and backoff gates — tests step through expiry
	// deterministically. Nil means time.Now.
	Now func() time.Time
	// Counters, when non-nil, receives executor counters (leases.held,
	// leases.expired, leases.stolen, cells.fenced, ...).
	// Process-local.
	Counters *telemetry.CounterSet
	// Progress, when non-nil, receives one line per queue state change.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 10 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// cellState is the on-disk attempt record for one cell. It is only ever
// written while holding the cell's lease, so there is exactly one writer
// at a time.
type cellState struct {
	Key      string `json:"key"`
	SeedKey  string `json:"seed_key"`
	Attempts int    `json:"attempts"`
	// Running marks an attempt in flight. A claimant that finds the flag
	// set on a freshly-acquired lease knows the previous holder died
	// mid-attempt (a clean failure clears it before releasing).
	Running   bool   `json:"running"`
	NotBefore int64  `json:"not_before_unix_ns,omitempty"`
	LastErr   string `json:"last_err,omitempty"`
}

// PoisonRecord quarantines a cell that exhausted its attempt budget (or
// violated determinism). The record carries enough to render the per-cell
// error and to find the preserved artifacts.
type PoisonRecord struct {
	Key       string   `json:"key"`
	SeedKey   string   `json:"seed_key"`
	Attempts  int      `json:"attempts"`
	Err       string   `json:"err"`
	Artifacts []string `json:"artifacts,omitempty"`
}

// QuarantinedError is what a vetoed (poisoned) cell fails with in the
// final sweep.
type QuarantinedError struct {
	Record PoisonRecord
}

func (e *QuarantinedError) Error() string {
	msg := fmt.Sprintf("shard: cell %s quarantined after %d attempt(s): %s",
		e.Record.SeedKey, e.Record.Attempts, e.Record.Err)
	if len(e.Record.Artifacts) > 0 {
		msg += fmt.Sprintf(" (artifacts: %v)", e.Record.Artifacts)
	}
	return msg
}

func cellStatePath(dir, hash string) string {
	return filepath.Join(dir, hash+".cell.json")
}

func poisonPath(dir, hash string) string {
	return filepath.Join(dir, hash+".poison.json")
}

func readPoison(dir, hash string) (PoisonRecord, bool) {
	var rec PoisonRecord
	data, err := os.ReadFile(poisonPath(dir, hash))
	if err != nil || json.Unmarshal(data, &rec) != nil {
		return rec, false
	}
	return rec, true
}

// Veto returns an experiments.Options.Veto function over a queue
// directory: a quarantined cell fails immediately with a
// *QuarantinedError instead of re-executing a known failure serially.
// The poison file is consulted per call, so quarantines appearing
// mid-run take effect.
func Veto(dir string) func(key string) error {
	return func(key string) error {
		if rec, ok := readPoison(dir, checkpoint.KeyHash(key)); ok {
			return &QuarantinedError{Record: rec}
		}
		return nil
	}
}

// Poisoned lists the quarantine records for the given cells, in cell
// order.
func Poisoned(dir string, cells []experiments.CellSpec) []PoisonRecord {
	var out []PoisonRecord
	for _, c := range cells {
		if rec, ok := readPoison(dir, checkpoint.KeyHash(c.Key)); ok {
			out = append(out, rec)
		}
	}
	return out
}
