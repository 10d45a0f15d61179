package checkpoint

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ClaimDir hands out mutually-exclusive wall-clock leases over named
// resources using nothing but a shared directory — no network, no
// daemon, no flock (which silently degrades on some shared filesystems).
// The protocol rests on one primitive every POSIX filesystem (local or
// NFS) makes atomic: link(2), a create-if-absent.
//
// A resource's state is a sequence of immutable records named by fencing
// epoch, <name>.lease-1, <name>.lease-2, ...; the highest epoch on disk
// is the current state. Every transition — a first claim, a steal from
// an expired or dead holder, a takeover of an undecodable record, and a
// release (a record flagged Released) — links a fully-written record at
// epoch E+1 after reading epoch E. Exactly one of N concurrent
// contenders wins that link, so exactly one of N concurrent claimants
// wins the lease. Records are never renamed, rewritten or removed, so
// the epochs on disk are contiguous: each ClaimDir caches the highest
// epoch it has seen per name and probes forward from it. (Deleting old
// records would break that: a prober starting below the gap would hand
// out a regressed epoch.)
//
// On top of that, three rules make the protocol safe for a fleet of
// machines with skewed clocks and arbitrarily-stalled processes:
//
//   - The holder of epoch E is superseded exactly when epoch E+1 exists,
//     so Renew and Lease.Verify are one read each. Renewal writes an
//     epoch-scoped heartbeat sidecar (<name>.hb-<epoch>) instead of a
//     record, whose sole legitimate writer is the claim that owns that
//     epoch — so a stalled holder resuming after a steal cannot resurrect
//     or extend a lease it no longer holds, only touch an inert file
//     nobody reads. Lease.Verify / the store's PutVerifyFenced fence such
//     zombies at publication.
//   - Expiry honors a configurable skew grace: a lease is only stealable
//     once the claimant's clock reads deadline+MaxSkew, so a holder whose
//     clock runs up to MaxSkew behind the fleet still gets its full TTL.
//     The one exception is same-host fast reclaim: when the holder's
//     owner identity parses, names this host, and its pid is provably
//     dead (kill(pid,0) == ESRCH), waiting out the deadline serves
//     nothing and the lease is reclaimed immediately.
//   - An undecodable record (bad media, a foreign writer) is taken over
//     like an expired one rather than blocking the resource, and stays on
//     disk under its epoch name for post-mortem.
type ClaimDir struct {
	dir  string
	opts ClaimOptions

	mu  sync.Mutex
	top map[string]uint64 // highest epoch seen per name
}

// ClaimOptions configure clocking, skew tolerance, fault injection, and
// observability for a ClaimDir. The zero value is production defaults:
// real clock, zero skew grace, no hook, no observer.
type ClaimOptions struct {
	// Clock supplies the time for deadlines and expiry checks. Nil means
	// time.Now. Tests inject a fake to step through expiry and skew
	// deterministically.
	Clock func() time.Time
	// MaxSkew is the grace added to a lease deadline before it may be
	// stolen: tolerate holders whose clocks run up to MaxSkew behind
	// ours. Zero (the default) preserves single-machine semantics.
	MaxSkew time.Duration
	// Hook, when non-nil, intercepts every lease filesystem operation for
	// deterministic fault injection. See FaultHook.
	Hook FaultHook
	// Observe, when non-nil, receives coordination events (EvClaim,
	// EvSteal, ...) for telemetry counters.
	Observe func(event string)
}

// Owner identifies a lease holder precisely enough to reason about its
// liveness: which host, which pid, and a per-process boot nonce so a
// recycled pid is never mistaken for the original claimant.
type Owner struct {
	Host  string
	PID   int
	Nonce string
}

// NewOwner builds this process's owner identity.
func NewOwner() Owner {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown-host"
	}
	return Owner{Host: host, PID: os.Getpid(), Nonce: newNonce()}
}

func newNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a claim over; fall back
		// to a time-derived tag (uniqueness, not secrecy, is the goal).
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// String renders the identity as "host/pid/nonce" — the wire format
// stored in lease records.
func (o Owner) String() string {
	return fmt.Sprintf("%s/%d/%s", o.Host, o.PID, o.Nonce)
}

// ParseOwner decodes a "host/pid/nonce" owner string. ok=false for
// free-form owner names (tests, legacy callers), which simply opt out of
// fast reclaim.
func ParseOwner(s string) (Owner, bool) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Owner{}, false
	}
	nonce := s[i+1:]
	rest := s[:i]
	j := strings.LastIndexByte(rest, '/')
	if j < 0 {
		return Owner{}, false
	}
	pid, err := strconv.Atoi(rest[j+1:])
	if err != nil || pid <= 0 || rest[:j] == "" || nonce == "" {
		return Owner{}, false
	}
	return Owner{Host: rest[:j], PID: pid, Nonce: nonce}, true
}

// pidProbablyDead is the fast-reclaim probe: true only when the
// owner names this host and its pid provably no longer exists. A SIGSTOPped
// process reads as alive (correct: it may resume), a recycled pid reads
// as alive (safe: just means waiting out the deadline), EPERM reads as
// alive.
func pidProbablyDead(o Owner) bool {
	if o.PID <= 0 || o.Host == "" || o.PID == os.Getpid() {
		return false
	}
	host, err := os.Hostname()
	if err != nil || host != o.Host {
		return false
	}
	return errors.Is(syscall.Kill(o.PID, 0), syscall.ESRCH)
}

// OpenClaims creates (if needed) and opens a claim directory with default
// options — the single-machine configuration every pre-fleet caller gets.
func OpenClaims(dir string) (*ClaimDir, error) {
	return OpenClaimsWith(dir, ClaimOptions{})
}

// OpenClaimsWith creates (if needed) and opens a claim directory with
// explicit fleet options.
func OpenClaimsWith(dir string, opts ClaimOptions) (*ClaimDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open claims %s: %w", dir, err)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &ClaimDir{dir: dir, opts: opts, top: map[string]uint64{}}, nil
}

// Dir reports the claim directory root.
func (c *ClaimDir) Dir() string { return c.dir }

func (c *ClaimDir) leasePath(name string, epoch uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s.lease-%d", name, epoch))
}

func (c *ClaimDir) hbPath(name string, epoch uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s.hb-%d", name, epoch))
}

func (c *ClaimDir) now() int64 { return c.opts.Clock().UnixNano() }

func (c *ClaimDir) note(event string) {
	if c.opts.Observe != nil {
		c.opts.Observe(event)
	}
}

// saw raises the cached highest epoch of name to at least epoch.
func (c *ClaimDir) saw(name string, epoch uint64) {
	c.mu.Lock()
	if epoch > c.top[name] {
		c.top[name] = epoch
	}
	c.mu.Unlock()
}

// leaseRecord is the on-disk body of one epoch — written once, never
// rewritten (renewals go to the heartbeat sidecar).
type leaseRecord struct {
	Owner    string `json:"owner"`
	Deadline int64  `json:"deadline_unix_ns"`
	Epoch    uint64 `json:"epoch"`
	// Released marks the record its owner's Release linked: the resource
	// is free at this epoch.
	Released bool `json:"released,omitempty"`
}

// hbRecord is the heartbeat sidecar body: the extended deadline for one
// claim epoch.
type hbRecord struct {
	Deadline int64 `json:"deadline_unix_ns"`
}

// errCorruptLease marks a lease record that exists but does not decode —
// bad media, or a file some other writer left under a record name.
var errCorruptLease = errors.New("checkpoint: corrupt lease record")

// readLease decodes the lease record at path through the fault hook.
// Returns errCorruptLease (wrapped) for present-but-undecodable records,
// the raw error otherwise.
func (c *ClaimDir) readLease(op, path string) (leaseRecord, error) {
	var rec leaseRecord
	err := c.opts.Hook.do(op, path, func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(data) == 0 || json.Unmarshal(data, &rec) != nil {
			return errCorruptLease
		}
		return nil
	})
	return rec, err
}

// latest finds name's highest epoch, probing forward from the highest
// one this ClaimDir has seen, and returns it with its record. Epoch 0
// means no record exists yet. err is the top record's read error:
// errCorruptLease for an undecodable record, otherwise an I/O failure.
func (c *ClaimDir) latest(op, name string) (epoch uint64, rec leaseRecord, err error) {
	c.mu.Lock()
	start := c.top[name]
	c.mu.Unlock()
	epoch = start
	for {
		next, nerr := c.readLease(op, c.leasePath(name, epoch+1))
		if os.IsNotExist(nerr) {
			break
		}
		if nerr != nil && !errors.Is(nerr, errCorruptLease) {
			return 0, leaseRecord{}, nerr
		}
		epoch++
		rec, err = next, nerr
	}
	if epoch == start && epoch > 0 {
		rec, err = c.readLease(op, c.leasePath(name, epoch))
	}
	c.saw(name, epoch)
	return epoch, rec, err
}

// effectiveDeadline is the record deadline extended by the claim's
// heartbeat sidecar, when one exists for the record's epoch. Heartbeats
// only ever extend — a missing or unreadable sidecar falls back to the
// claim-time deadline.
func (c *ClaimDir) effectiveDeadline(name string, rec leaseRecord) int64 {
	deadline := rec.Deadline
	path := c.hbPath(name, rec.Epoch)
	_ = c.opts.Hook.do("lease.hb-read", path, func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil // no heartbeat yet: not an error
		}
		var hb hbRecord
		if json.Unmarshal(data, &hb) == nil && hb.Deadline > deadline {
			deadline = hb.Deadline
		}
		return nil
	})
	return deadline
}

// link atomically creates name's record at rec.Epoch; won=false means
// that epoch already exists — another contender made the transition
// first. The record is staged in a temp file and link(2)ed into place,
// so a record name never exists with partial contents, and the link is
// fsynced into the directory so a transition survives a crash.
func (c *ClaimDir) link(op, name string, rec leaseRecord) (won bool, err error) {
	data, _ := json.Marshal(rec)
	path := c.leasePath(name, rec.Epoch)
	err = c.opts.Hook.do(op, path, func() error {
		f, err := os.CreateTemp(c.dir, ".claim-*")
		if err != nil {
			return err
		}
		tmp := f.Name()
		defer os.Remove(tmp)
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Link(tmp, path); err != nil {
			if os.IsExist(err) {
				return nil // another contender made this transition
			}
			return err
		}
		if err := syncDir(c.dir); err != nil {
			return err
		}
		won = true
		return nil
	})
	if err != nil {
		return false, fmt.Errorf("checkpoint: %s %s: %w", op, path, err)
	}
	if won {
		c.saw(name, rec.Epoch)
	}
	return won, nil
}

// Lease is a held claim at a specific fencing epoch. It is valid until
// its (heartbeat-extended) deadline passes; Renew extends it, Release
// gives it up, Verify checks it has not been superseded.
type Lease struct {
	c     *ClaimDir
	name  string
	owner string
	epoch uint64
}

// Name reports the resource the lease covers.
func (l *Lease) Name() string { return l.name }

// Owner reports the holder identity the lease was claimed with.
func (l *Lease) Owner() string { return l.owner }

// Epoch reports the lease's fencing epoch — the token publication-side
// fence checks compare against the resource's current claim.
func (l *Lease) Epoch() uint64 { return l.epoch }

// ErrLeaseLost reports a Renew that found the lease no longer held by its
// owner at its epoch — it expired and another process stole it, or it
// was released. The holder must stop extending and assume a competitor
// owns the work; its publications will be rejected by the fence.
var ErrLeaseLost = fmt.Errorf("checkpoint: lease lost (expired and stolen)")

// TryClaim attempts to acquire the lease on name for owner with the given
// ttl. It returns (lease, true, nil) on success, (nil, false, nil) when
// another live holder has it, and an error only on I/O failure. A free
// resource, an expired lease — deadline + MaxSkew in the past, or held by
// a provably dead same-host pid — and an undecodable record are all taken
// the same way: by linking the next epoch, which exactly one contender
// wins.
func (c *ClaimDir) TryClaim(name, owner string, ttl time.Duration) (*Lease, bool, error) {
	for attempt := 0; attempt < 16; attempt++ {
		epoch, rec, err := c.latest("lease.read", name)
		event := ""
		switch {
		case errors.Is(err, errCorruptLease):
			event = EvCorrupt
		case err != nil:
			return nil, false, fmt.Errorf("checkpoint: claim %s: %w", name, err)
		case epoch == 0 || rec.Released:
			// Free: never claimed, or released.
		default:
			event = EvSteal
			if c.now() < c.effectiveDeadline(name, rec)+int64(c.opts.MaxSkew) {
				o, pok := ParseOwner(rec.Owner)
				if !pok || !pidProbablyDead(o) {
					return nil, false, nil
				}
				event = EvFastReclaim
			}
		}
		won, err := c.link("lease.create", name, leaseRecord{
			Owner:    owner,
			Deadline: c.opts.Clock().Add(ttl).UnixNano(),
			Epoch:    epoch + 1,
		})
		if err != nil {
			return nil, false, err
		}
		if !won {
			continue // another contender took epoch+1; re-read it
		}
		if event != "" {
			c.note(event)
			// Best effort: the superseded epoch's heartbeat is inert now.
			_ = os.Remove(c.hbPath(name, epoch))
		}
		c.note(EvClaim)
		return &Lease{c: c, name: name, owner: owner, epoch: epoch + 1}, true, nil
	}
	// Pathological churn: behave as "held elsewhere" and let the caller's
	// next scan retry.
	return nil, false, nil
}

// Renew extends the lease by ttl from now. The claim record is immutable;
// the extension is written to the epoch-scoped heartbeat sidecar, whose
// only legitimate writer is this claim — so a renew that finds a newer
// epoch returns ErrLeaseLost without writing anything, and a stalled
// holder can never resurrect a stolen lease (its sidecar is inert
// garbage keyed to a superseded epoch).
func (l *Lease) Renew(ttl time.Duration) error {
	c := l.c
	_, err := c.readLease("lease.renew-read", c.leasePath(l.name, l.epoch+1))
	switch {
	case os.IsNotExist(err):
	case err == nil, errors.Is(err, errCorruptLease):
		return ErrLeaseLost
	default:
		return fmt.Errorf("checkpoint: renew lease %s: %w", l.name, err)
	}
	hb, _ := json.Marshal(hbRecord{Deadline: c.opts.Clock().Add(ttl).UnixNano()})
	hbp := c.hbPath(l.name, l.epoch)
	err = c.opts.Hook.do("lease.hb-write", hbp, func() error { return WriteFileDurable(hbp, hb) })
	if err != nil {
		return fmt.Errorf("checkpoint: renew lease %s: %w", l.name, err)
	}
	return nil
}

// Verify reports whether this lease is still the resource's current
// claim. nil means publications fenced on it may proceed; a *FencedError
// (matching ErrFenced) means a newer epoch superseded it. The lease's
// own Released record does not fence it — only a claim after that does.
// A corrupt successor reads as fenced (conservative: requeue beats
// double-publish); an I/O failure is returned as-is.
func (l *Lease) Verify() error {
	c := l.c
	next := l.epoch + 1
	rec, err := c.readLease("lease.verify", c.leasePath(l.name, next))
	if err == nil && rec.Released && rec.Owner == l.owner {
		next++
		rec, err = c.readLease("lease.verify", c.leasePath(l.name, next))
	}
	switch {
	case os.IsNotExist(err):
		return nil
	case err == nil:
		return &FencedError{Name: l.name, Epoch: l.epoch, NewerEpoch: next, Holder: rec.Owner}
	case errors.Is(err, errCorruptLease):
		return &FencedError{Name: l.name, Epoch: l.epoch, NewerEpoch: next}
	default:
		return fmt.Errorf("checkpoint: verify lease %s: %w", l.name, err)
	}
}

// Release gives the lease up by linking a Released record at the next
// epoch. If that epoch already exists — the lease expired and was stolen
// — the link loses, the thief's claim is untouched, and the release is a
// no-op observed as EvReleaseLost.
func (l *Lease) Release() {
	c := l.c
	won, err := c.link("lease.release", l.name, leaseRecord{Owner: l.owner, Epoch: l.epoch + 1, Released: true})
	if err != nil || !won {
		c.note(EvReleaseLost)
		return
	}
	_ = os.Remove(c.hbPath(l.name, l.epoch)) // best effort: inert once released
}

// Holder reports the current owner of name's lease and whether the lease
// is still live (heartbeat-extended deadline in the future, no skew
// grace — this is observational, not a steal decision). ok=false means
// unclaimed.
func (c *ClaimDir) Holder(name string) (owner string, live bool, ok bool) {
	epoch, rec, err := c.latest("lease.holder", name)
	if err != nil || epoch == 0 || rec.Released {
		return "", false, false
	}
	return rec.Owner, c.now() < c.effectiveDeadline(name, rec), true
}
