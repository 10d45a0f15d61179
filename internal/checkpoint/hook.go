package checkpoint

import (
	"errors"
	"fmt"
)

// FaultHook intercepts a logical filesystem operation before it runs, for
// deterministic fault injection in tests (the internal/fault philosophy
// applied to the coordination layer: everything seeded, nothing
// time-dependent). op names the operation ("lease.read", "store.put",
// ...), path its target. A non-nil return makes the operation fail with
// that error without touching the filesystem, exactly as a real NFS blip
// (ESTALE, EIO) would. Nothing at this layer retries: under the shard
// queue a lease blip ends the worker's scan, and a publication blip
// fails the cell's attempt, which the queue requeues with backoff. Hooks
// must be safe for concurrent use.
type FaultHook func(op, path string) error

// do runs fn as logical operation op on path: the hook, when set, fires
// first and its error replaces the operation; otherwise fn runs once.
func (h FaultHook) do(op, path string, fn func() error) error {
	if h != nil {
		if err := h(op, path); err != nil {
			return err
		}
	}
	return fn()
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
