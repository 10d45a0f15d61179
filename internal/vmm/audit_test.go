package vmm

import (
	"strings"
	"testing"

	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
)

// newAuditRig is newRig with the invariant auditor enabled at a tight
// scan cadence.
func newAuditRig(frames, mappedPages int, pol policy.Policy, seed uint64) *rig {
	eng := sim.NewEngine(4)
	rng := sim.NewRNG(seed)
	memory := mem.New(frames)
	regions := (mappedPages + pagetable.PTEsPerRegion - 1) / pagetable.PTEsPerRegion
	table := pagetable.New(regions)
	table.MapRange(0, mappedPages, false)
	dev := swap.NewSSD(swap.SSDConfig{
		ReadLatency: 100 * sim.Microsecond, WriteLatency: 100 * sim.Microsecond,
		QueueDepth: 8, MaxDirtyWrites: 32,
	}, eng, rng.Stream(1))
	cfg := DefaultConfig()
	cfg.Audit = true
	cfg.AuditEvery = 4
	mgr := New(cfg, eng, memory, table, dev, pol, rng.Stream(2))
	return &rig{eng: eng, m: mgr, mem: memory}
}

// newFileAuditRig is newAuditRig with the upper half of the mapping
// file-backed and a page cache attached, so file pages fault, evict and
// read ahead through the cache under the auditor.
func newFileAuditRig(frames, mappedPages int, pol policy.Policy, seed uint64) *rig {
	r := newAuditRig(frames, mappedPages, pol, seed)
	half := mappedPages / 2
	r.m.table.MapRange(pagetable.VPN(half), mappedPages-half, true)
	dev := swap.NewSSD(swap.DefaultSSDConfig(), r.eng, sim.NewRNG(seed).Stream(3))
	fc := pagecache.New(pagecache.DefaultConfig(), r.eng, r.m.table, r.mem, dev,
		[]pagecache.FileSpan{{Name: "file", Base: pagetable.VPN(half), Pages: mappedPages - half}})
	r.m.AttachFileCache(fc)
	return r
}

// thrash drives enough faults through the rig that reclaim, readahead,
// and (for MG-LRU) aging all fire.
func thrash(r *rig, t *testing.T, pages int) {
	t.Helper()
	r.run(t, func(v *sim.Env) { touchRounds(v, r.m, pages) })
}

// touchRounds touches every page four times over, writing the even ones.
func touchRounds(v *sim.Env, m *Manager, pages int) {
	for round := 0; round < 4; round++ {
		for i := 0; i < pages; i++ {
			m.Touch(v, pagetable.VPN(i), i%2 == 0)
		}
	}
}

// evictedPage returns a page of the given type that is out of memory
// with a shadow entry, or fails the test.
func evictedPage(t *testing.T, r *rig, pages int, file bool) pagetable.VPN {
	t.Helper()
	for i := 0; i < pages; i++ {
		vpn := pagetable.VPN(i)
		if r.m.table.FileBacked(vpn) == file && !r.m.table.IsPresent(vpn) && r.m.shadows.Has(vpn) {
			return vpn
		}
	}
	t.Fatalf("no evicted page (file %v) holds a shadow entry", file)
	return -1
}

// TestAuditedPageCacheClean: a thrashing run with file pages under the
// page cache reaches the file-eviction checks and raises no violations.
func TestAuditedPageCacheClean(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  func() policy.Policy
	}{
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFileAuditRig(64, 256, tc.pol(), 7)
			thrash(r, t, 256)
			if st := r.m.fc.Stats(); st.Evictions == 0 || st.Refaults == 0 {
				t.Fatalf("file pages never evicted and refaulted: %+v", st)
			}
			if err := r.m.AuditErr(); err != nil {
				t.Fatalf("audited page-cache trial flagged: %v", err)
			}
		})
	}
}

// TestAuditCatchesLostFileShadow deletes an evicted file page's shadow
// entry behind the auditor's back; the scan must report it.
func TestAuditCatchesLostFileShadow(t *testing.T) {
	r := newFileAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	thrash(r, t, 256)
	r.m.shadows.Drop(evictedPage(t, r, 256, true))
	err := r.m.AuditErr()
	if err == nil || !strings.Contains(err.Error(), "has no shadow entry") {
		t.Fatalf("deleted file shadow not reported: %v", err)
	}
}

// TestAuditCatchesLostAnonShadow is the anon twin: the scan checks every
// evicted page against the one shadow store, whatever its type.
func TestAuditCatchesLostAnonShadow(t *testing.T) {
	r := newFileAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	thrash(r, t, 256)
	r.m.shadows.Drop(evictedPage(t, r, 256, false))
	err := r.m.AuditErr()
	if err == nil || !strings.Contains(err.Error(), "has no shadow entry") {
		t.Fatalf("deleted anon shadow not reported: %v", err)
	}
}

// TestAuditCatchesUntrackedShadow records a shadow entry for a resident
// file page, one no eviction checkpoint saw; the live count must
// disagree with the auditor's ledger.
func TestAuditCatchesUntrackedShadow(t *testing.T) {
	r := newFileAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	thrash(r, t, 256)
	vpn := pagetable.VPN(-1)
	for i := 128; i < 256; i++ {
		if r.m.table.IsPresent(pagetable.VPN(i)) {
			vpn = pagetable.VPN(i)
			break
		}
	}
	if vpn < 0 {
		t.Fatal("no resident file page")
	}
	r.m.shadows.Record(vpn, policy.Shadow{})
	err := r.m.AuditErr()
	if err == nil || !strings.Contains(err.Error(), "shadow count") {
		t.Fatalf("untracked shadow not reported: %v", err)
	}
}

// TestAuditCatchesDoubleFileEvict checkpoints an evicted file page's
// eviction a second time, as a shadow overwrite would.
func TestAuditCatchesDoubleFileEvict(t *testing.T) {
	r := newFileAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	r.run(t, func(v *sim.Env) {
		touchRounds(v, r.m, 256)
		r.m.Auditor().EvictedFile(v, evictedPage(t, r, 256, true))
	})
	err := r.m.AuditErr()
	if err == nil || !strings.Contains(err.Error(), "evicted twice") {
		t.Fatalf("repeated file eviction not reported: %v", err)
	}
}

// TestAuditedTrialClean: a full thrashing run under each policy family
// engages the auditor (checkpoints and full scans happen) and raises no
// violations — the production fault/evict/readahead/aging paths uphold
// every invariant.
func TestAuditedTrialClean(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  func() policy.Policy
	}{
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditRig(64, 256, tc.pol(), 7)
			thrash(r, t, 256)
			aud := r.m.Auditor()
			if aud == nil {
				t.Fatal("auditor not installed despite cfg.Audit")
			}
			if aud.Checkpoints() == 0 {
				t.Fatal("auditor saw no checkpoints during a thrashing run")
			}
			if err := r.m.AuditErr(); err != nil {
				t.Fatalf("audited trial flagged: %v", err)
			}
		})
	}
}

// TestAuditCatchesInjectedCorruption corrupts a live audited system —
// aliasing one page's frame into a second PTE, the double-mapping bug —
// and asserts the final scan refuses to pass it.
func TestAuditCatchesInjectedCorruption(t *testing.T) {
	r := newAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	thrash(r, t, 256)

	var victim pagetable.VPN = -1
	for i := 0; i < 256; i++ {
		if r.m.table.PTE(pagetable.VPN(i)).Present() {
			victim = pagetable.VPN(i)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no resident page to corrupt")
	}
	// Alias the next non-present page onto the victim's frame.
	for i := 0; i < 256; i++ {
		vpn := pagetable.VPN(i)
		if !r.m.table.PTE(vpn).Present() {
			r.m.table.Insert(vpn, r.m.table.PTE(victim).Frame, false)
			break
		}
	}
	err := r.m.AuditErr()
	if err == nil {
		t.Fatal("injected double mapping not detected")
	}
	if !strings.Contains(err.Error(), "owned by two VPNs") {
		t.Fatalf("unexpected violation set: %v", err)
	}
}

// TestAuditViolationReachesFlightDump: with a tracer attached, an
// invariant violation must land in the flight-recorder dump directly —
// as an instant in the ring and as the full diff in the notes — without
// going through the trial-error path at all. This is the auditor→telemetry
// hook's contract: flight.txt carries the breached invariant even when
// the trial dies before AuditErr runs.
func TestAuditViolationReachesFlightDump(t *testing.T) {
	r := newAuditRig(64, 256, mglru.New(mglru.Default()), 7)
	tr := telemetry.New(telemetry.Config{})
	tr.Bind(r.eng.Now)
	r.m.SetTracer(tr)
	thrash(r, t, 256)

	var victim pagetable.VPN = -1
	for i := 0; i < 256; i++ {
		if r.m.table.PTE(pagetable.VPN(i)).Present() {
			victim = pagetable.VPN(i)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no resident page to corrupt")
	}
	for i := 0; i < 256; i++ {
		vpn := pagetable.VPN(i)
		if !r.m.table.PTE(vpn).Present() {
			r.m.table.Insert(vpn, r.m.table.PTE(victim).Frame, false)
			break
		}
	}
	// Final scan detects the corruption; the reporter fires synchronously,
	// BEFORE anyone inspects the returned error.
	if err := r.m.AuditErr(); err == nil {
		t.Fatal("injected double mapping not detected")
	}
	var sb strings.Builder
	if err := tr.WriteFlight(&sb, "test dump"); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	if !strings.Contains(dump, "owned by two VPNs") {
		t.Fatalf("flight dump missing the invariant diff:\n%s", dump)
	}
	if !strings.Contains(dump, "audit-violation") {
		t.Fatalf("flight dump missing the audit-violation instant:\n%s", dump)
	}
}
