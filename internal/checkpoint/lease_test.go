package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakeClock is a settable clock shared by every ClaimDir in a test, so
// expiry and skew are stepped deterministically instead of slept for.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// eventLog is a race-safe ClaimOptions.Observe sink.
type eventLog struct {
	mu sync.Mutex
	m  map[string]int
}

func newEventLog() *eventLog { return &eventLog{m: map[string]int{}} }

func (e *eventLog) note(ev string) {
	e.mu.Lock()
	e.m[ev]++
	e.mu.Unlock()
}

func (e *eventLog) count(ev string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m[ev]
}

func TestOwnerRoundtrip(t *testing.T) {
	o := NewOwner()
	if o.Host == "" || o.PID != os.Getpid() || o.Nonce == "" {
		t.Fatalf("NewOwner = %+v", o)
	}
	back, ok := ParseOwner(o.String())
	if !ok || back != o {
		t.Fatalf("ParseOwner(%q) = %+v, %v", o.String(), back, ok)
	}
	for _, bad := range []string{"", "w1", "host/abc/nonce", "host/0/nonce", "/1/n", "host/1/"} {
		if _, ok := ParseOwner(bad); ok {
			t.Errorf("ParseOwner(%q) accepted", bad)
		}
	}
	// Hosts joined back out of multi-slash strings must survive: only the
	// last two segments are pid/nonce.
	withSlash := Owner{Host: "rack1/node7", PID: 42, Nonce: "abc"}
	back, ok = ParseOwner(withSlash.String())
	if !ok || back != withSlash {
		t.Fatalf("ParseOwner(slash host) = %+v, %v", back, ok)
	}
}

// TestReleaseRaceDoesNotRemoveThiefLease is the regression test for the
// release-after-steal race: a steal landing just before Release's link
// must not tear down the thief's live lease. The fault hook opens
// exactly that window deterministically.
func TestReleaseRaceDoesNotRemoveThiefLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	events := newEventLog()
	thiefDir, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	victimDir, err := OpenClaimsWith(dir, ClaimOptions{
		Clock:   clk.Now,
		Observe: events.note,
		Hook: func(op, path string) error {
			if op == "lease.release" {
				once.Do(func() {
					// The victim is about to link its release record.
					// Expire the lease and let the thief claim.
					clk.Advance(time.Hour)
					if _, ok, err := thiefDir.TryClaim("cell", "thief", time.Hour); err != nil || !ok {
						t.Errorf("thief steal inside window = %v, %v", ok, err)
					}
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := victimDir.TryClaim("cell", "victim", time.Minute)
	if err != nil || !ok {
		t.Fatalf("victim claim = %v, %v", ok, err)
	}
	l.Release()
	owner, live, present := thiefDir.Holder("cell")
	if !present || !live || owner != "thief" {
		t.Fatalf("thief's lease after victim Release = %q live=%v present=%v, want live thief", owner, live, present)
	}
	if events.count(EvReleaseLost) == 0 {
		t.Fatal("displaced Release not observed as EvReleaseLost")
	}
}

// TestStealWindowHandsOutOneLease is the deterministic regression test
// for a steal with two winners. Contender A judges the seeded lease
// expired; just before each of A's next two transition steps, contender
// B and then contender C run a whole TryClaim. B's hour-long steal must
// be the only lease handed out: A and C are refused and B stays the
// verified, live holder.
func TestStealWindowHandsOutOneLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	open := func(hook FaultHook) *ClaimDir {
		c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now, Hook: hook})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, ok, err := open(nil).TryClaim("cell", "dead", time.Minute); err != nil || !ok {
		t.Fatalf("seed claim = %v, %v", ok, err)
	}
	clk.Advance(time.Hour)

	var b *Lease
	var bWon, cWon, cRan bool
	runB := func() {
		var err error
		if b, bWon, err = open(nil).TryClaim("cell", "B", time.Hour); err != nil {
			t.Errorf("B claim: %v", err)
		}
	}
	runC := func() {
		cRan = true
		var err error
		if _, cWon, err = open(nil).TryClaim("cell", "C", time.Hour); err != nil {
			t.Errorf("C claim: %v", err)
		}
	}
	var steps int
	a := open(func(op, path string) error {
		if strings.HasSuffix(op, "read") {
			return nil // only A's transition steps open the window
		}
		steps++
		switch steps {
		case 1:
			runB()
		case 2:
			runC()
		}
		return nil
	})
	_, aWon, err := a.TryClaim("cell", "A", time.Hour)
	if err != nil {
		t.Fatalf("A claim: %v", err)
	}
	if !cRan {
		runC()
	}
	if !bWon || aWon || cWon {
		t.Fatalf("B won=%v A won=%v C won=%v, want only B", bWon, aWon, cWon)
	}
	if err := b.Verify(); err != nil {
		t.Fatalf("B Verify = %v", err)
	}
	if owner, live, present := open(nil).Holder("cell"); !present || !live || owner != "B" {
		t.Fatalf("Holder = %q live=%v present=%v, want live B", owner, live, present)
	}
}

// TestRenewCannotResurrectStolenLease closes the verify-then-write
// window: even when the steal lands after Renew's ownership check
// passes, the stale holder's heartbeat goes to its own epoch's sidecar
// and cannot extend or resurrect the thief's claim.
func TestRenewCannotResurrectStolenLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	thiefDir, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	victimDir, err := OpenClaimsWith(dir, ClaimOptions{
		Clock: clk.Now,
		Hook: func(op, path string) error {
			if op == "lease.hb-write" {
				once.Do(func() {
					clk.Advance(time.Hour)
					if _, ok, err := thiefDir.TryClaim("cell", "thief", time.Minute); err != nil || !ok {
						t.Errorf("thief steal inside renew window = %v, %v", ok, err)
					}
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := victimDir.TryClaim("cell", "victim", time.Minute)
	if err != nil || !ok {
		t.Fatalf("victim claim = %v, %v", ok, err)
	}
	// The ownership check passes (steal happens after it), the heartbeat
	// write lands — in the dead epoch's sidecar.
	renewErr := l.Renew(24 * time.Hour)
	owner, live, present := thiefDir.Holder("cell")
	if !present || owner != "thief" {
		t.Fatalf("thief lease gone after stale renew: %q present=%v", owner, present)
	}
	if live {
		// The thief claimed for one minute and the clock then stood still;
		// after the victim's 24h renewal attempt the thief's deadline must
		// be untouched — advance past it and confirm it expires on the
		// thief's own schedule.
		clk.Advance(2 * time.Minute)
		if _, stillLive, _ := thiefDir.Holder("cell"); stillLive {
			t.Fatal("stale holder's renewal extended the thief's lease")
		}
	}
	// And the plain post-steal renew (check fails) must report the loss.
	if renewErr == nil {
		if err := l.Renew(time.Hour); err != ErrLeaseLost {
			t.Fatalf("renew after steal = %v, want ErrLeaseLost", err)
		}
	}
}

// TestRenewAfterStealReturnsErrLeaseLost pins the simple epoch-check
// path: once stolen, Renew reports ErrLeaseLost and writes nothing.
func TestRenewAfterStealReturnsErrLeaseLost(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := c.TryClaim("cell", "victim", time.Minute)
	if err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	clk.Advance(time.Hour)
	thief, ok, err := c.TryClaim("cell", "thief", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal = %v, %v", ok, err)
	}
	if err := l.Renew(time.Hour); err != ErrLeaseLost {
		t.Fatalf("Renew after steal = %v, want ErrLeaseLost", err)
	}
	if _, err := os.Stat(c.hbPath("cell", l.Epoch())); !os.IsNotExist(err) {
		t.Fatalf("stale Renew left a heartbeat for the dead epoch: %v", err)
	}
	if thief.Epoch() <= l.Epoch() {
		t.Fatalf("thief epoch %d not above victim epoch %d", thief.Epoch(), l.Epoch())
	}
}

// TestSkewGrace pins the steal deadline arithmetic: a contender whose
// clock runs ahead steals prematurely at MaxSkew=0 (the hazard), and is
// held off by a MaxSkew covering the divergence.
func TestSkewGrace(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxSkew time.Duration
		ahead   time.Duration
		stolen  bool
	}{
		{"zero-skew-ahead-clock-steals", 0, 90 * time.Second, true},
		{"grace-covers-skew", 2 * time.Minute, 90 * time.Second, false},
		{"grace-expired-steals", 2 * time.Minute, 4 * time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			holderClk := newFakeClock()
			holderDir, err := OpenClaimsWith(dir, ClaimOptions{Clock: holderClk.Now})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := holderDir.TryClaim("cell", "holder", time.Minute); err != nil || !ok {
				t.Fatalf("claim = %v, %v", ok, err)
			}
			aheadClk := newFakeClock()
			aheadClk.Advance(tc.ahead) // contender clock runs ahead of the holder's
			events := newEventLog()
			contenderDir, err := OpenClaimsWith(dir, ClaimOptions{
				Clock:   aheadClk.Now,
				MaxSkew: tc.maxSkew,
				Observe: events.note,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := contenderDir.TryClaim("cell", "contender", time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.stolen {
				t.Fatalf("steal with clock +%v, skew %v: got %v, want %v", tc.ahead, tc.maxSkew, got, tc.stolen)
			}
			if wantSteals := 0; tc.stolen {
				wantSteals = 1
				if events.count(EvSteal) != wantSteals {
					t.Fatalf("EvSteal = %d, want %d", events.count(EvSteal), wantSteals)
				}
			}
		})
	}
}

// TestHeartbeatExtendsLease: a renewed lease stays unstealable past its
// original deadline, via the heartbeat sidecar rather than a record
// rewrite.
func TestHeartbeatExtendsLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := c.TryClaim("cell", "holder", time.Minute)
	if err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	clk.Advance(50 * time.Second)
	if err := l.Renew(time.Minute); err != nil {
		t.Fatalf("renew = %v", err)
	}
	clk.Advance(30 * time.Second) // past the original deadline, inside the renewal
	if _, ok, err := c.TryClaim("cell", "contender", time.Minute); err != nil || ok {
		t.Fatalf("renewed lease stolen at +80s = %v, %v", ok, err)
	}
	if _, live, present := c.Holder("cell"); !present || !live {
		t.Fatal("renewed lease not live per Holder")
	}
	clk.Advance(time.Minute) // now past the renewal too
	if _, ok, err := c.TryClaim("cell", "contender", time.Minute); err != nil || !ok {
		t.Fatalf("expired renewed lease not stealable = %v, %v", ok, err)
	}
}

func TestPidProbablyDead(t *testing.T) {
	host, _ := os.Hostname()
	if pidProbablyDead(Owner{Host: host, PID: os.Getpid(), Nonce: "x"}) {
		t.Fatal("own pid reported dead")
	}
	if pidProbablyDead(Owner{Host: "some-other-host", PID: 1, Nonce: "x"}) {
		t.Fatal("foreign host reported dead")
	}
	cmd := exec.Command("/bin/true")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn probe process: %v", err)
	}
	pid := cmd.Process.Pid
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if !pidProbablyDead(Owner{Host: host, PID: pid, Nonce: "x"}) {
		t.Fatalf("exited pid %d not reported dead", pid)
	}
}

// TestFastReclaimDeadHolder: a lease held by a provably dead same-host
// pid is reclaimed immediately, hours before its deadline.
func TestFastReclaimDeadHolder(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	events := newEventLog()
	c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now, Observe: events.note})
	if err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	cmd := exec.Command("/bin/true")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn probe process: %v", err)
	}
	deadPid := cmd.Process.Pid
	cmd.Wait()
	deadOwner := Owner{Host: host, PID: deadPid, Nonce: "boot1"}
	if _, ok, err := c.TryClaim("cell", deadOwner.String(), 10*time.Hour); err != nil || !ok {
		t.Fatalf("seed claim = %v, %v", ok, err)
	}
	l, ok, err := c.TryClaim("cell", NewOwner().String(), time.Minute)
	if err != nil || !ok {
		t.Fatalf("fast reclaim of dead holder = %v, %v", ok, err)
	}
	if events.count(EvFastReclaim) != 1 {
		t.Fatalf("EvFastReclaim = %d, want 1", events.count(EvFastReclaim))
	}
	if l.Epoch() != 2 {
		t.Fatalf("reclaimed epoch = %d, want 2", l.Epoch())
	}
	// A live same-host holder (this test process) must NOT be reclaimed.
	dir2 := t.TempDir()
	c2, err := OpenClaimsWith(dir2, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c2.TryClaim("cell", NewOwner().String(), time.Hour); err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	if _, ok, err := c2.TryClaim("cell", "contender", time.Hour); err != nil || ok {
		t.Fatalf("live same-host holder reclaimed = %v, %v", ok, err)
	}
}

// TestCorruptLeaseQuarantined: an undecodable lease record is taken over
// at the next epoch, counted once, and kept on disk byte-for-byte for
// post-mortem.
func TestCorruptLeaseQuarantined(t *testing.T) {
	dir := t.TempDir()
	events := newEventLog()
	c, err := OpenClaimsWith(dir, ClaimOptions{Observe: events.note})
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("{torn json")
	if err := os.WriteFile(c.leasePath("cell", 1), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	l, ok, err := c.TryClaim("cell", "w1", time.Hour)
	if err != nil || !ok {
		t.Fatalf("claim over corrupt lease = %v, %v", ok, err)
	}
	if l.Epoch() != 2 {
		t.Fatalf("claim over corrupt epoch 1 got epoch %d, want 2", l.Epoch())
	}
	if events.count(EvCorrupt) != 1 {
		t.Fatalf("EvCorrupt = %d, want 1", events.count(EvCorrupt))
	}
	kept, err := os.ReadFile(c.leasePath("cell", 1))
	if err != nil || string(kept) != string(garbage) {
		t.Fatalf("corrupt record bytes = %q, %v", kept, err)
	}
	l.Release()
	// An empty (zero-byte) record is torn media too.
	if err := os.WriteFile(c.leasePath("cell", l.Epoch()+2), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, ok, err := c.TryClaim("cell", "w1", time.Hour); err != nil || !ok || l2.Epoch() != l.Epoch()+3 {
		t.Fatalf("claim over empty lease = %v, %v, %v", l2, ok, err)
	}
	if events.count(EvCorrupt) != 2 {
		t.Fatalf("EvCorrupt after empty record = %d, want 2", events.count(EvCorrupt))
	}
}

// TestPathologicalChurnExit pins the 16-attempt bound: a name whose
// record perpetually reads as vanished while the file exists (so every
// create loses) makes TryClaim give up with (false, nil) — "held
// elsewhere", not an error and not a hang.
func TestPathologicalChurnExit(t *testing.T) {
	dir := t.TempDir()
	var reads int
	c, err := OpenClaimsWith(dir, ClaimOptions{
		Hook: func(op, path string) error {
			if op == "lease.read" {
				reads++
				return os.ErrNotExist
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A real record occupies the name, so every fresh create loses the
	// link race while every read reports it vanished — maximal churn.
	blocker, err := OpenClaims(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := blocker.TryClaim("cell", "blocker", time.Hour); err != nil || !ok {
		t.Fatalf("blocker claim = %v, %v", ok, err)
	}
	l, ok, err := c.TryClaim("cell", "churner", time.Hour)
	if err != nil || ok || l != nil {
		t.Fatalf("pathological churn = %v, %v, %v; want (nil, false, nil)", l, ok, err)
	}
	if reads != 16 {
		t.Fatalf("attempts = %d, want 16", reads)
	}
}

// TestLeaseIOErrorIsNotRetried: an NFS-style blip (ESTALE) on a lease
// read is not retried at this layer. The hook fires once, TryClaim
// returns the error unchanged for the caller (the shard worker's scan),
// and no record is written.
func TestLeaseIOErrorIsNotRetried(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	reads := 0
	c, err := OpenClaimsWith(dir, ClaimOptions{Hook: func(op, path string) error {
		if op != "lease.read" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		reads++
		return syscall.ESTALE
	}})
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := c.TryClaim("cell", "w1", time.Hour)
	if !errors.Is(err, syscall.ESTALE) || ok || l != nil {
		t.Fatalf("claim through a blip = %v, %v, %v; want (nil, false, ESTALE)", l, ok, err)
	}
	if reads != 1 {
		t.Fatalf("lease.read hook fired %d times, want 1", reads)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "cell.lease-*")); len(m) != 0 {
		t.Fatalf("failed claim left records: %v", m)
	}
}

// TestVerifyFencing pins Lease.Verify across the lease lifecycle: live
// claim verifies, stolen claim fences, a claim superseded by a
// steal+release chain still fences, and the releaser is not fenced by
// its own release.
func TestVerifyFencing(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	victim, ok, err := c.TryClaim("cell", "victim", time.Minute)
	if err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	if err := victim.Verify(); err != nil {
		t.Fatalf("live Verify = %v", err)
	}
	clk.Advance(time.Hour)
	thief, ok, err := c.TryClaim("cell", "thief", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal = %v, %v", ok, err)
	}
	verr := victim.Verify()
	if !errors.Is(verr, ErrFenced) {
		t.Fatalf("stolen Verify = %v, want ErrFenced", verr)
	}
	var fe *FencedError
	if !errors.As(verr, &fe) || fe.NewerEpoch != thief.Epoch() || fe.Holder != "thief" {
		t.Fatalf("FencedError detail = %+v", fe)
	}
	if err := thief.Verify(); err != nil {
		t.Fatalf("thief Verify = %v", err)
	}
	// Thief completes and releases: the resource is free, but the thief's
	// epoch still fences the zombie.
	thief.Release()
	if err := victim.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Verify after steal+release = %v, want ErrFenced", err)
	}
	// The thief itself, post-release, still verifies clean: release does
	// not fence the releaser.
	if err := thief.Verify(); err != nil {
		t.Fatalf("thief Verify after own release = %v", err)
	}
}

// TestEpochMonotonicAcrossRelease: epochs strictly increase through
// claim/release/claim/steal chains — the property fencing rests on.
func TestEpochMonotonicAcrossRelease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	c, err := OpenClaimsWith(dir, ClaimOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		l, ok, err := c.TryClaim("cell", fmt.Sprintf("w%d", i), time.Minute)
		if err != nil || !ok {
			t.Fatalf("claim %d = %v, %v", i, ok, err)
		}
		if l.Epoch() <= last {
			t.Fatalf("epoch %d after %d: not monotonic", l.Epoch(), last)
		}
		last = l.Epoch()
		if i%2 == 0 {
			l.Release()
		} else {
			clk.Advance(time.Hour) // leave it to be stolen next iteration
		}
	}
}

// TestPutVerifyFenced: a fenced writer is rejected before the
// byte-verify path — a divergent zombie payload becomes a FencedError,
// not a determinism ConflictError, and leaves no .conflict sidecar.
func TestPutVerifyFenced(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutVerify("k", []byte("legit")); err != nil {
		t.Fatal(err)
	}
	fence := func() error { return &FencedError{Name: "k", Epoch: 1, NewerEpoch: 2, Holder: "thief"} }
	err = s.PutVerifyFenced("k", []byte("ZOMBIE-DIVERGENT"), fence)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced divergent put = %v, want ErrFenced", err)
	}
	var ce *ConflictError
	if errors.As(err, &ce) {
		t.Fatal("fenced put misclassified as determinism conflict")
	}
	if got, _ := s.Get("k"); string(got) != "legit" {
		t.Fatalf("store clobbered: %q", got)
	}
	if matches, _ := filepath.Glob(filepath.Join(s.Dir(), "*.conflict")); len(matches) != 0 {
		t.Fatalf("fenced put left conflict sidecars: %v", matches)
	}
	// Identical bytes are fenced just as hard: the fence outranks the
	// byte-identical fast path, so double-publish is observable.
	if err := s.PutVerifyFenced("k", []byte("legit"), fence); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced identical put = %v, want ErrFenced", err)
	}
	// A clean fence passes through to normal PutVerify semantics.
	if err := s.PutVerifyFenced("k2", []byte("v"), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k2"); string(got) != "v" {
		t.Fatalf("clean fenced put lost: %q", got)
	}
}

// TestHolderUnderChurn hammers Holder while claims, steals, renews, and
// releases churn concurrently: it must only ever report a coherent
// owner from the contender set, never an error-state tear (run under
// -race in CI).
func TestHolderUnderChurn(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenClaims(dir)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	const workers = 4
	for i := 0; i < workers; i++ {
		valid[fmt.Sprintf("churn-w%d", i)] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			owner := fmt.Sprintf("churn-w%d", id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, ok, err := c.TryClaim("cell", owner, time.Millisecond)
				if err != nil {
					t.Errorf("churn claim: %v", err)
					return
				}
				if !ok {
					continue
				}
				_ = l.Renew(time.Millisecond)
				if id%2 == 0 {
					l.Release()
				} // odd workers abandon: the lease expires and is stolen
			}
		}(i)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		owner, _, present := c.Holder("cell")
		if present && !valid[owner] && !strings.HasPrefix(owner, "churn-w") {
			t.Fatalf("Holder reported stranger %q", owner)
		}
	}
	close(stop)
	wg.Wait()
	// The directory must hold no stranded tombstones or quarantine files
	// after churn — only lease records and heartbeats.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if strings.Contains(n, ".stale-") || strings.Contains(n, ".rel-") || strings.Contains(n, ".corrupt-") {
			t.Fatalf("stranded sidecar after churn: %s", n)
		}
	}
}
