package checkpoint

import (
	"errors"
	"fmt"
	"syscall"
	"time"
)

// Shared filesystems fail differently from local disks: NFS handles go
// stale (ESTALE), server hiccups surface as EIO, and signals interrupt
// slow RPC-backed syscalls (EINTR) — all without the underlying file
// being gone or the mount being dead. This file gives the coordination
// layer one vocabulary for those blips: a typed transient-error
// classifier, a bounded exponential-backoff retry policy with seeded
// jitter, and an injectable fault hook so tests drive the exact same
// code paths a flaky NFS server would, deterministically.

// IsTransientIO reports whether err looks like a transient shared-
// filesystem blip worth retrying: stale NFS handles, interrupted
// syscalls, I/O errors, and temporary resource exhaustion. Permanent
// outcomes (ENOENT, EEXIST, permission errors) are never transient —
// they are protocol states the lease/store machinery decides on.
func IsTransientIO(err error) bool {
	if err == nil {
		return false
	}
	for _, errno := range []syscall.Errno{
		syscall.ESTALE, syscall.EINTR, syscall.EIO, syscall.EAGAIN, syscall.EBUSY,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// FaultHook intercepts a logical filesystem operation before it runs, for
// deterministic fault injection in tests (the internal/fault philosophy
// applied to the coordination layer: everything seeded, nothing
// time-dependent). op names the operation ("lease.read", "store.put",
// ...), path its target. A non-nil return makes the operation fail with
// that error without touching the filesystem; returning a transient errno
// exercises the retry path exactly as a real NFS blip would. Hooks must
// be safe for concurrent use.
type FaultHook func(op, path string) error

// RetryPolicy bounds retries of transient I/O failures: Attempts total
// tries, Backoff doubling per retry with deterministic jitter derived
// from Seed (never wall-clock randomness, so test schedules replay).
type RetryPolicy struct {
	// Attempts is the total try budget per operation (<=0: 1, i.e. no
	// retry).
	Attempts int
	// Backoff is the delay before the first retry, doubled per attempt
	// and capped at 32x. <=0 with Attempts>1 defaults to 5ms.
	Backoff time.Duration
	// Seed feeds the jitter hash; two policies with the same seed retry
	// on identical schedules.
	Seed uint64
	// Sleep overrides time.Sleep (tests pass a no-op or a virtual clock).
	Sleep func(time.Duration)
	// OnRetry, when non-nil, observes every retry (telemetry counters).
	OnRetry func(op string, attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// jitter derives a deterministic delay perturbation in [0, base/2) from
// (seed, op, attempt) via a splitmix64 round — stateless, so concurrent
// retriers never contend on an RNG.
func jitter(seed uint64, op string, attempt int, base time.Duration) time.Duration {
	x := seed ^ uint64(attempt)*0x9E3779B97F4A7C15
	for i := 0; i < len(op); i++ {
		x = (x ^ uint64(op[i])) * 0xBF58476D1CE4E5B9
	}
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if base <= 1 {
		return 0
	}
	return time.Duration(x % uint64(base/2+1))
}

// ioPolicy is the retry+hook bundle every ClaimDir/Store filesystem
// operation routes through.
type ioPolicy struct {
	retry   RetryPolicy
	hook    FaultHook
	observe func(event string)
}

func (io ioPolicy) note(event string) {
	if io.observe != nil {
		io.observe(event)
	}
}

// do runs fn as logical operation op on path under the policy: the fault
// hook fires before each try, transient failures back off and retry
// within the attempt budget, and anything else returns immediately.
func (io ioPolicy) do(op, path string, fn func() error) error {
	p := io.retry.withDefaults()
	delay := p.Backoff
	var err error
	for attempt := 1; ; attempt++ {
		err = nil
		if io.hook != nil {
			err = io.hook(op, path)
		}
		if err == nil {
			err = fn()
		}
		if err == nil || !IsTransientIO(err) || attempt >= p.Attempts {
			return err
		}
		io.note(EvIORetry)
		if p.OnRetry != nil {
			p.OnRetry(op, attempt, err)
		}
		p.Sleep(delay + jitter(p.Seed, op, attempt, delay))
		if delay < 32*p.Backoff {
			delay *= 2
		}
	}
}

// Observable coordination events, emitted via ClaimOptions.Observe (the
// shard executor maps them onto telemetry counters).
const (
	// EvClaim: a lease was acquired (fresh claim or successful steal).
	EvClaim = "lease.claim"
	// EvSteal: an expired lease was stolen past its skew-grace deadline.
	EvSteal = "lease.steal"
	// EvFastReclaim: a same-host lease whose holder pid is provably dead
	// was reclaimed without waiting out the deadline.
	EvFastReclaim = "lease.fast-reclaim"
	// EvCorrupt: an undecodable lease record was taken over at the next
	// epoch; the record itself stays on disk for post-mortem.
	EvCorrupt = "lease.corrupt"
	// EvReleaseLost: a Release found its claim already superseded (the
	// stale-holder no-op path).
	EvReleaseLost = "lease.release-lost"
	// EvIORetry: a transient I/O failure was retried.
	EvIORetry = "io.retry"
)

// ErrFenced is the sentinel all fencing rejections unwrap to: the writer
// holds a lease epoch that is no longer the resource's current claim, so
// its publication must not land. Test with errors.Is(err, ErrFenced).
var ErrFenced = errors.New("checkpoint: lease epoch fenced by a newer claim")

// FencedError reports a fenced write or a superseded lease in detail.
type FencedError struct {
	// Name is the leased resource (cell hash).
	Name string
	// Epoch is the writer's stale claim epoch.
	Epoch uint64
	// NewerEpoch is the epoch that fenced it.
	NewerEpoch uint64
	// Holder is the superseding claim's owner, when known.
	Holder string
}

func (e *FencedError) Error() string {
	who := e.Holder
	if who == "" {
		who = "(released)"
	}
	return fmt.Sprintf("checkpoint: claim on %s at epoch %d fenced by epoch %d held by %s",
		e.Name, e.Epoch, e.NewerEpoch, who)
}

// Is makes errors.Is(err, ErrFenced) match every FencedError.
func (e *FencedError) Is(target error) bool { return target == ErrFenced }
