package check

import (
	"fmt"
	"sort"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/oracle"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/sim"
	"mglrusim/internal/trace"
	"mglrusim/internal/workload"
)

// RecordTrace materializes a workload's page-access sequence by draining
// its thread streams round-robin (the canonical interleaving), up to
// maxOps accesses. The recorded order is what the differential harness
// replays under every policy, so all policies — oracles included — see
// the identical access sequence.
func RecordTrace(w workload.Workload, planSeed, trialSeed uint64, maxOps int) []pagetable.VPN {
	streams := w.Threads(sim.NewRNG(planSeed), sim.NewRNG(trialSeed))
	out := make([]pagetable.VPN, 0, maxOps)
	var op workload.Op
	live := len(streams)
	for live > 0 && len(out) < maxOps {
		live = 0
		for _, s := range streams {
			if s == nil {
				continue
			}
			if !s.Next(&op) {
				continue
			}
			live++
			if op.Kind == workload.OpAccess {
				out = append(out, op.VPN)
				if len(out) >= maxOps {
					return out
				}
			}
		}
	}
	return out
}

// TableFor builds a fresh page table laid out for w — Replay needs a new
// table per policy run, so callers pass this as a constructor.
func TableFor(w workload.Workload) func() *pagetable.Table {
	return func() *pagetable.Table {
		t := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
		w.Layout(t)
		return t
	}
}

// FileVPNs returns a classifier reporting whether a VPN lies in one of
// w's file-backed segments, for replaying mixed file+anon traces. It
// returns nil — every page anonymous — when w maps no file segment, so
// callers can pass the result straight to ReplayMixed either way.
func FileVPNs(w workload.Workload) func(pagetable.VPN) bool {
	var files []workload.Segment
	for _, s := range w.Segments() {
		if s.File {
			files = append(files, s)
		}
	}
	if len(files) == 0 {
		return nil
	}
	return func(vpn pagetable.VPN) bool {
		for _, s := range files {
			if s.Contains(vpn) {
				return true
			}
		}
		return false
	}
}

// Replay runs one policy over a recorded trace under strict demand paging
// at a fixed capacity: a hit touches the page (setting its accessed bit),
// a miss reclaims exactly as many pages as needed to free one frame and
// faults the page in. The returned count is the number of faults
// (including cold misses). Policies implementing oracle.AccessObserver are
// additionally shown every access in order, before it is processed.
//
// With audit set, a full invariant Auditor runs against the replay kernel
// and any violation is returned as an error.
func Replay(pol policy.Policy, tr []pagetable.VPN, mkTable func() *pagetable.Table, capacity int, audit bool) (int, error) {
	return ReplayMixed(pol, tr, mkTable, capacity, audit, nil)
}

// ReplayMixed is Replay over a mixed file+anon address space: pages for
// which isFile reports true fault in file-backed, so type-aware policies
// (MG-LRU's file shield) exercise their file paths under the same strict
// demand paging. A nil isFile replays everything anonymous, which is
// exactly Replay.
func ReplayMixed(pol policy.Policy, tr []pagetable.VPN, mkTable func() *pagetable.Table, capacity int, audit bool, isFile func(pagetable.VPN) bool) (int, error) {
	if capacity <= 0 {
		return 0, fmt.Errorf("check: replay capacity must be positive, got %d", capacity)
	}
	k := policytest.NewWithTable(capacity, mkTable(), 1)
	pol.Attach(k)
	obs, _ := pol.(oracle.AccessObserver)

	eng := sim.NewEngine(4)
	var aud *Auditor
	if audit {
		aud = NewAuditor(eng, k.M, k.T, pol)
		// Replay tables can span hundreds of thousands of PTEs; thin the
		// O(pages) full scans so the audited replay stays fast.
		aud.Every = 1024
		aud.WatchLists()
	}
	k.OnEvict = func(v *sim.Env, vpn pagetable.VPN, sh policy.Shadow) {
		if aud != nil {
			aud.Evicted(v, vpn)
		}
	}

	faults := 0
	var replayErr error
	eng.Spawn("replay", false, func(v *sim.Env) {
		maxStalls := 10*capacity + 1000
		for pos, vpn := range tr {
			if obs != nil {
				obs.Observe(v, pos, vpn)
			}
			if _, ok := k.T.Walk(vpn, false); ok {
				continue // hit: accessed bit now set
			}
			faults++
			stalls := 0
			for k.M.FreePages() == 0 {
				if pol.Reclaim(v, 1) == 0 {
					stalls++
					if stalls > maxStalls {
						replayErr = fmt.Errorf("check: policy %q made no reclaim progress after %d attempts at access %d (vpn %d)",
							pol.Name(), stalls, pos, vpn)
						return
					}
				}
			}
			hadShadow := false
			if _, ok := k.Shadows[vpn]; ok {
				hadShadow = true
			}
			k.FaultIn(v, pol, vpn, false, isFile != nil && isFile(vpn))
			if aud != nil {
				aud.FaultIn(v, vpn, hadShadow)
			}
		}
	})
	if err := eng.Run(); err != nil {
		return faults, fmt.Errorf("check: replay engine: %w", err)
	}
	if replayErr != nil {
		return faults, replayErr
	}
	if aud != nil {
		aud.Final(eng.Now())
		if err := aud.Err(); err != nil {
			return faults, fmt.Errorf("check: replay of %q: %w", pol.Name(), err)
		}
	}
	return faults, nil
}

// DiffReport is the outcome of one differential run: every policy's fault
// count over the same trace at the same capacity, bracketed by the
// oracles.
type DiffReport struct {
	// Capacity is the frame count replayed at.
	Capacity int
	// Accesses is the trace length.
	Accesses int
	// MattsonLRUMisses is the stack-distance prediction for exact LRU.
	MattsonLRUMisses int
	// OPTFaults is Belady-OPT's fault count — the floor for every policy.
	OPTFaults int
	// Faults maps policy name to fault count (oracles included).
	Faults map[string]int
}

// String renders the report as a small table, worst policy first.
func (r *DiffReport) String() string {
	names := make([]string, 0, len(r.Faults))
	for n := range r.Faults {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.Faults[names[i]] != r.Faults[names[j]] {
			return r.Faults[names[i]] > r.Faults[names[j]]
		}
		return names[i] < names[j]
	})
	s := fmt.Sprintf("capacity %d, %d accesses, mattson-lru %d:", r.Capacity, r.Accesses, r.MattsonLRUMisses)
	for _, n := range names {
		s += fmt.Sprintf("\n  %-10s %d", n, r.Faults[n])
	}
	return s
}

// RunDifferential replays every supplied policy constructor — plus the
// exact-LRU and Belady-OPT oracles — over one recorded trace at a fixed
// capacity, and asserts the two ordering bounds that make the harness a
// correctness oracle:
//
//   - no policy incurs fewer faults than OPT (a policy beating
//     clairvoyance has broken bookkeeping, e.g. it double-maps frames or
//     under-counts faults), and
//   - exact-LRU's fault count equals the Mattson stack-distance
//     prediction from internal/trace bit-for-bit (tying the replay
//     machinery to an independently-computed analytical result).
//
// Policies are replayed with full invariant auditing when audit is set.
func RunDifferential(tr []pagetable.VPN, mkTable func() *pagetable.Table, capacity int, policies map[string]func() policy.Policy, audit bool) (*DiffReport, error) {
	return RunDifferentialMixed(tr, mkTable, capacity, policies, audit, nil)
}

// RunDifferentialMixed is RunDifferential over a mixed file+anon address
// space (see ReplayMixed). The ordering bounds hold regardless of page
// type — Belady clairvoyance is type-blind, so a type-aware policy that
// beats OPT has still broken its bookkeeping.
func RunDifferentialMixed(tr []pagetable.VPN, mkTable func() *pagetable.Table, capacity int, policies map[string]func() policy.Policy, audit bool, isFile func(pagetable.VPN) bool) (*DiffReport, error) {
	an := trace.NewAnalyzer(len(tr))
	for _, vpn := range tr {
		an.Add(vpn)
	}
	rep := &DiffReport{
		Capacity:         capacity,
		Accesses:         len(tr),
		MattsonLRUMisses: an.Misses(capacity),
		Faults:           make(map[string]int, len(policies)+2),
	}

	all := make(map[string]func() policy.Policy, len(policies)+2)
	for name, mk := range policies {
		all[name] = mk
	}
	all["exact-lru"] = func() policy.Policy { return oracle.NewExactLRU() }
	all["opt"] = func() policy.Policy { return oracle.NewOPT(tr) }

	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		faults, err := ReplayMixed(all[name](), tr, mkTable, capacity, audit, isFile)
		if err != nil {
			return rep, err
		}
		rep.Faults[name] = faults
	}
	rep.OPTFaults = rep.Faults["opt"]

	if lru := rep.Faults["exact-lru"]; lru != rep.MattsonLRUMisses {
		return rep, fmt.Errorf("check: exact-LRU replay disagrees with Mattson stack-distance analysis: replay %d faults, mattson %d (capacity %d, %d accesses)",
			lru, rep.MattsonLRUMisses, capacity, len(tr))
	}
	for _, name := range names {
		if f := rep.Faults[name]; f < rep.OPTFaults {
			return rep, fmt.Errorf("check: policy %q beat Belady-OPT (%d < %d faults) — bookkeeping must be wrong",
				name, f, rep.OPTFaults)
		}
	}
	return rep, nil
}
