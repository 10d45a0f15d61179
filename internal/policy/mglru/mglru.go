package mglru

import (
	"fmt"

	"mglrusim/internal/bloom"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/pidctl"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// MGLRU is the Multi-Generational LRU policy.
type MGLRU struct {
	cfg Config
	k   policy.Kernel
	rng *sim.RNG

	// Generation ring: gens[seq % MaxGens] is the list for sequence seq.
	// Sequences in [minSeq, maxSeq] are live.
	gens   []*mem.List
	minSeq uint64
	maxSeq uint64

	tiers *pidctl.TierSet

	// fileGain, non-nil under TierProtection, watches the file-vs-anon
	// refault balance: when evicted file pages refault harder than anon
	// ones, eviction skips upper-tier file pages so the file tier is
	// protected under refault imbalance (§III-D applied across the
	// file/anon split, the way the kernel balances its two LRU types).
	fileGain *pidctl.TierGain

	// lock is the lruvec lock: list mutations from the fault path, the
	// eviction path, and the aging walk all serialize on it.
	lock policy.LRULock

	// reclaims runs Reclaim's passes, whose cursors reclaimStep hands on
	// to the kernel's EvictStep; ages continues Age's parked walks.
	reclaims sim.Stepper[reclaimWalk]
	ages     sim.Stepper[policy.AgeWalk]

	// aging guards the walk itself: only one max_seq increment can be in
	// flight (the kernel's try_to_inc_max_seq serialization). Concurrent
	// callers wait for the in-flight walk instead of double-incrementing.
	// walkEpoch counts completed walks so a waiter returns as soon as
	// the walk it raced with finishes, even if the aging daemon starts
	// the next walk back-to-back.
	aging     bool
	walkEpoch uint64
	agingDone sim.Cond

	// Split bloom filters: cur gates the current aging walk, next is
	// populated during the walk (and by the eviction thread's spatial
	// scans) for the following walk.
	cur, next *bloom.Filter

	// genRegs, when TrackRegions is set, mirrors generation membership as
	// per-generation region bitsets (verification only; see genregions.go).
	genRegs *genRegions

	// tr, when non-nil, receives generation-window instants; nil tracing
	// costs one pointer check at each site.
	tr      *telemetry.Tracer
	trTrack telemetry.TrackID

	stats policy.Stats
}

// New creates an MG-LRU policy from cfg.
func New(cfg Config) *MGLRU {
	cfg.normalize()
	g := &MGLRU{cfg: cfg}
	g.reclaims.Step = g.reclaimStep
	g.ages.Step = g.AgeStep
	return g
}

// Name implements policy.Policy.
func (g *MGLRU) Name() string { return g.cfg.VariantName }

// Attach implements policy.Policy.
func (g *MGLRU) Attach(k policy.Kernel) {
	g.k = k
	g.rng = k.Rand()
	g.gens = make([]*mem.List, g.cfg.MaxGens)
	for i := range g.gens {
		g.gens[i] = mem.NewList(k.Mem(), int16(i))
	}
	g.minSeq = 0
	g.maxSeq = uint64(g.cfg.MinGens - 1) // start with MinGens generations
	g.tiers = pidctl.NewTierSet(g.cfg.Tiers, g.cfg.PIDKp, g.cfg.PIDKi)
	if g.cfg.TierProtection {
		g.fileGain = pidctl.NewTierGain(g.cfg.PIDKp, g.cfg.PIDKi)
	}
	regions := k.Table().Regions()
	seed := g.rng.Uint64()
	g.cur = bloom.NewForItems(regions, seed)
	g.next = bloom.NewForItems(regions, seed^0xabcdef123456789)
	if g.cfg.TrackRegions {
		g.genRegs = newGenRegions(g.cfg.MaxGens, regions)
	}
}

// RegisterTelemetry implements telemetry.Registrant: the generation window
// and per-slot ring occupancy become gauges (the per-generation series
// policyviz renders), and window movements become instants on an "mglru"
// track. Call after Attach.
func (g *MGLRU) RegisterTelemetry(tr *telemetry.Tracer) {
	g.tr = tr
	if tr == nil {
		return
	}
	g.trTrack = tr.Track("mglru")
	tr.Gauge("mglru.min_seq", func() int64 { return int64(g.minSeq) })
	tr.Gauge("mglru.max_seq", func() int64 { return int64(g.maxSeq) })
	for i := range g.gens {
		l := g.gens[i]
		tr.Gauge(fmt.Sprintf("mglru.gen%d.len", i), func() int64 { return int64(l.Len()) })
	}
	if g.cfg.TierProtection {
		// Tier control positions: the raw evicted/refaulted counts behind
		// the PID decisions, so policyviz can plot per-tier refault ratios.
		for t := 0; t < g.cfg.Tiers; t++ {
			t := t
			tr.Gauge(fmt.Sprintf("mglru.tier%d.evicted", t),
				func() int64 { return int64(g.tiers.Snapshot(t).Evicted) })
			tr.Gauge(fmt.Sprintf("mglru.tier%d.refaulted", t),
				func() int64 { return int64(g.tiers.Snapshot(t).Refaulted) })
		}
	}
	if g.fileGain != nil {
		tr.Gauge("mglru.file_gain.anon_evicted", func() int64 { a, _ := g.fileGain.Snapshot(); return int64(a.Evicted) })
		tr.Gauge("mglru.file_gain.anon_refaulted", func() int64 { a, _ := g.fileGain.Snapshot(); return int64(a.Refaulted) })
		tr.Gauge("mglru.file_gain.file_evicted", func() int64 { _, f := g.fileGain.Snapshot(); return int64(f.Evicted) })
		tr.Gauge("mglru.file_gain.file_refaulted", func() int64 { _, f := g.fileGain.Snapshot(); return int64(f.Refaulted) })
		tr.Gauge("mglru.file_gain.protecting", func() int64 {
			if g.fileGain.Protecting() {
				return 1
			}
			return 0
		})
	}
}

// genList returns the list for sequence seq.
func (g *MGLRU) genList(seq uint64) *mem.List { return g.gens[seq%uint64(g.cfg.MaxGens)] }

// nrGens reports the live generation count.
func (g *MGLRU) nrGens() int { return int(g.maxSeq-g.minSeq) + 1 }

// MinSeq and MaxSeq expose the generation window for tests and policyviz.
func (g *MGLRU) MinSeq() uint64 { return g.minSeq }
func (g *MGLRU) MaxSeq() uint64 { return g.maxSeq }

// GenLen reports the population of generation seq.
func (g *MGLRU) GenLen(seq uint64) int { return g.genList(seq).Len() }

// tierOf maps an FD-reference count to a tier: log2(refs+1), capped.
func (g *MGLRU) tierOf(refs uint8) uint8 {
	t := 0
	for v := int(refs) + 1; v > 1 && t < g.cfg.Tiers-1; v >>= 1 {
		t++
	}
	return uint8(t)
}

func (g *MGLRU) charge(v *sim.Env, d sim.Duration) {
	g.stats.ScanCPU += d
	v.Charge(d)
}

// tryCharge is charge's non-blocking form (sim.Env.TryCharge).
func (g *MGLRU) tryCharge(v *sim.Env, d sim.Duration) bool {
	g.stats.ScanCPU += d
	return v.TryCharge(d)
}

// PageIn implements policy.Policy. Anonymous pages enter the youngest
// generation. File-backed pages enter an old generation and are promoted
// by tier as repeat FD accesses accumulate (§III-D), so single-use
// streaming reads never displace the working set.
func (g *MGLRU) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	g.lock.Acquire(v)
	defer g.lock.Release(v)
	fr := g.k.Mem().Frame(f)
	if sh != nil {
		g.stats.Refaults++
		fr.Flags |= mem.FlagWorkingset
		if g.cfg.TierProtection {
			t := sh.Tier
			if int(t) >= g.cfg.Tiers {
				t = uint8(g.cfg.Tiers - 1)
			}
			g.tiers.RecordRefault(int(t))
		}
		if g.fileGain != nil {
			g.fileGain.RecordRefault(fr.Flags&mem.FlagFile != 0)
		}
	}
	// Second-oldest generation when the window allows, else oldest.
	oldGen := g.minSeq
	if g.nrGens() > 2 {
		oldGen = g.minSeq + 1
	}
	switch {
	case fr.Flags&mem.FlagFile != 0:
		// First-use file pages never enter the youngest generation, so
		// single-use streaming reads cannot displace the working set;
		// repeat FD accesses climb tiers instead. A refault is the
		// exception: workingset_refault activates the folio, so the page
		// that came back enters the youngest generation directly.
		refs := uint8(0)
		if sh != nil && sh.Refs < 255 {
			refs = sh.Refs + 1
		}
		fr.Refs = refs
		fr.Tier = g.tierOf(refs)
		fr.Gen = oldGen
		if sh != nil {
			fr.Gen = g.maxSeq
		}
	case fr.Flags&mem.FlagPrefetch != 0:
		// Speculative readahead pages have not actually been accessed;
		// they must prove themselves from an old generation.
		fr.Gen = oldGen
		fr.Tier = 0
		fr.Refs = 0
	default:
		fr.Gen = g.maxSeq
		fr.Tier = 0
		fr.Refs = 0
	}
	g.genList(fr.Gen).PushHead(f)
	g.trackAdd(fr.Gen, fr)
	g.charge(v, g.cfg.Costs.PageOp)
}

// promote moves frame f to generation seq (head). A frame that is on no
// list has been isolated by a concurrent eviction pass and is skipped —
// the simulator's analogue of the kernel isolating pages under the LRU
// lock before working on them.
func (g *MGLRU) promote(f mem.FrameID, seq uint64) {
	fr := g.k.Mem().Frame(f)
	if fr.ListID == mem.ListNone {
		return
	}
	if fr.Gen == seq {
		// Refresh recency within the generation.
		g.genList(seq).MoveToHead(f)
		return
	}
	g.genList(fr.Gen).Remove(f)
	g.trackRemove(fr.Gen, fr)
	fr.Gen = seq
	g.genList(seq).PushHead(f)
	g.trackAdd(seq, fr)
	g.stats.Promoted++
}

// advanceMinSeq retires empty oldest generations, keeping at least
// MinGens live; each retirement is a tier control period boundary.
func (g *MGLRU) advanceMinSeq() {
	for g.nrGens() > g.cfg.MinGens && g.genList(g.minSeq).Empty() {
		g.minSeq++
		g.tiers.Decay()
		if g.fileGain != nil {
			g.fileGain.Decay()
		}
		if g.tr != nil {
			g.tr.Instant(g.trTrack, "inc-min-seq", int64(g.minSeq))
		}
	}
}

// NeedsAging implements policy.Policy: aging must run when eviction is
// about to eat into the minimum generation window, or when the oldest
// generation has drained.
func (g *MGLRU) NeedsAging() bool {
	if g.nrGens() < g.cfg.MinGens {
		return true
	}
	if g.nrGens() == g.cfg.MinGens && g.genList(g.minSeq).Empty() {
		return true
	}
	return false
}

// Reclaim implements policy.Policy: evict from the tail of the oldest
// generation, walking the reverse map to confirm each candidate's
// accessed bit, promoting accessed pages to the youngest generation and —
// unlike Clock — opportunistically scanning the surrounding PTEs (§III-C).
//
// Reclaim runs the pass of reclaimStep, continuing it inline
// (sim.Env.Suspend) if it parks.
func (g *MGLRU) Reclaim(v *sim.Env, target int) int {
	if target <= 0 {
		return 0
	}
	c := g.reclaims.Get()
	g.startReclaim(&c.W, target)
	if g.reclaimStep(v, &c.W) {
		g.reclaims.Suspend(v, c)
	}
	evicted := c.W.evicted
	g.reclaims.Put(c)
	return evicted
}

// startReclaim sets w up for a pass that evicts up to target pages. The
// rest of w is set where the pass reaches it (the candidate, its
// eviction, an aging walk), and a lock wait is always over when a pass
// ends.
func (g *MGLRU) startReclaim(w *reclaimWalk, target int) {
	w.at, w.target, w.evicted, w.shielded = reclaimScan, target, 0, 0
	w.budget = target*g.cfg.ScanBatch + g.cfg.ScanBatch
	w.allowTier = g.cfg.Tiers - 1
	if g.cfg.TierProtection && g.cfg.Tiers > 1 {
		w.allowTier = g.tiers.ProtectedTier(1)
	}
	// One file-gain decision per reclaim pass (a control period). When
	// active, eviction pressure is steered onto the anon side — the
	// kernel's get_type_to_scan picking the type whose evictions are NOT
	// coming back; the progress fallback keeps reclaim live when the tail
	// holds nothing but file pages.
	w.protectFile = g.fileGain != nil && g.fileGain.ProtectFile(1)
}

// reclaimWalk is the cursor of an eviction pass.
type reclaimWalk struct {
	at          uint8
	target      int
	evicted     int
	budget      int  // candidates the pass may still isolate
	allowTier   int  // the highest tier the pass may evict from
	protectFile bool // the file shield is up
	// shielded counts candidates tier protection or the file shield
	// turned away this pass — the progress guarantee keys off it.
	shielded int
	f        mem.FrameID   // the isolated candidate
	vpn      pagetable.VPN // its page
	region   int           // the region the spatial scan harvested
	dense    bool          // that region is noted for the next walk
	lock     policy.LockWait
	age      policy.AgeWalk   // the walk the pass started
	evict    policy.EvictWalk // the candidate's eviction
}

// The points of an eviction pass, in reclaimWalk.at. Each is where the
// pass goes on after a park, so state is read at the same point relative
// to each park as in a blocking pass.
const (
	reclaimScan     = iota // the loop test: isolate another candidate?
	reclaimEnd             // the pass is over, unless it retries unshielded
	reclaimLock            // take the lock to isolate a candidate
	reclaimAge             // a walk to open a generation; none ends the pass
	reclaimAgeAny          // a walk to fill the generation window
	reclaimShielded        // a protected candidate's rotation is charged
	reclaimWalked          // the candidate's rmap walk is charged
	reclaimRotate          // take the lock to rotate an accessed candidate
	reclaimSpatial         // the spatial scan around it is charged
	reclaimEvict           // the candidate's eviction is in flight
)

// reclaimStep runs the pass w until it parks the proc, and then reports
// true; it reports false when the pass is over, with its result in
// w.evicted.
func (g *MGLRU) reclaimStep(v *sim.Env, w *reclaimWalk) (parked bool) {
	for {
		switch w.at {
		case reclaimScan:
			w.at = reclaimLock
			if w.evicted >= w.target || w.budget <= 0 {
				w.at = reclaimEnd
			}
		case reclaimEnd:
			// Progress guarantee: a whole pass that evicts nothing while
			// protection turned candidates away means the oldest
			// generations hold only protected pages (hot-tier file pages
			// under refault imbalance). Memory pressure outranks tier
			// balance — the kernel's equivalent is scan-priority
			// escalation ignoring protection — so drop every shield,
			// refill the scan budget, and retry once.
			if w.evicted == 0 && w.shielded > 0 && (w.allowTier < g.cfg.Tiers-1 || w.protectFile) {
				w.allowTier = g.cfg.Tiers - 1
				w.protectFile = false
				w.shielded = 0
				w.budget = w.target*g.cfg.ScanBatch + g.cfg.ScanBatch
				w.at = reclaimScan
				continue
			}
			return false
		case reclaimLock:
			if !g.lock.TryAcquire(v, &w.lock) {
				return true
			}
			g.advanceMinSeq()
			oldest := g.genList(g.minSeq)
			if oldest.Empty() && g.k.Table().PresentPages() == 0 {
				g.lock.Release(v)
				w.at = reclaimEnd // nothing resident anywhere
				continue
			}
			if oldest.Empty() || g.nrGens() < g.cfg.MinGens {
				// An empty oldest generation means everything younger is
				// protected by the generation window: force aging to open
				// a new youngest generation, then retry, or end the pass
				// if none opens. A short window is filled the same way.
				g.lock.Release(v)
				g.k.RequestAging()
				w.at = reclaimAgeAny
				if oldest.Empty() {
					w.at = reclaimAge
				}
				w.age = policy.AgeWalk{}
				continue
			}
			if g.isolate(v, w, oldest) {
				return true
			}
		case reclaimAge, reclaimAgeAny:
			if g.AgeStep(v, &w.age) {
				return true
			}
			if w.at == reclaimAge && !w.age.Worked {
				w.at = reclaimEnd
				continue
			}
			w.at = reclaimScan
		case reclaimShielded:
			g.lock.Release(v)
			w.at = reclaimScan
		case reclaimWalked:
			if g.k.Table().TestAndClearAccessed(w.vpn) {
				w.at = reclaimRotate
				continue
			}
			// Cold: evict. The frame is already isolated; eviction I/O
			// happens without the lock.
			fr := g.k.Mem().Frame(w.f)
			sh := policy.Shadow{Gen: fr.Gen, Tier: fr.Tier, Refs: fr.Refs, EvictedAt: v.Now()}
			if g.cfg.TierProtection {
				g.tiers.RecordEviction(int(fr.Tier))
			}
			if g.fileGain != nil {
				g.fileGain.RecordEviction(fr.Flags&mem.FlagFile != 0)
			}
			g.stats.Evicted++
			w.evict.F, w.evict.Shadow, w.evict.At = w.f, sh, 0
			w.at = reclaimEvict
		case reclaimEvict:
			if g.k.EvictStep(v, &w.evict) {
				return true
			}
			w.evicted++
			w.at = reclaimScan
		case reclaimRotate:
			// Accessed since last scan: promote to youngest and exploit
			// spatial locality around the hot PTE.
			if !g.lock.TryAcquire(v, &w.lock) {
				return true
			}
			fr := g.k.Mem().Frame(w.f)
			fr.Gen = g.maxSeq
			g.genList(fr.Gen).PushHead(w.f)
			g.trackAdd(fr.Gen, fr)
			g.stats.Rotated++
			if fr.Flags&mem.FlagFile != 0 && fr.Refs < 255 {
				fr.Refs++
				fr.Tier = g.tierOf(fr.Refs)
			}
			if g.cfg.SpatialScan {
				w.region = g.k.Table().RegionOf(w.vpn)
				cost, dense := g.harvest(w.region, g.maxSeq)
				w.dense = dense
				w.at = reclaimSpatial
				if !g.tryCharge(v, cost) {
					return true
				}
				continue
			}
			g.lock.Release(v)
			w.at = reclaimScan
		case reclaimSpatial:
			g.noteDense(w.region, w.dense)
			// Feedback into the aging walk's next filter.
			if g.cfg.Mode == ModeBloom {
				g.next.Add(uint64(w.region))
			}
			g.lock.Release(v)
			w.at = reclaimScan
		}
	}
}

// isolate takes the tail of the oldest generation as the pass's
// candidate, under the lock, so concurrent aging and reclaim passes
// cannot move it. A protected candidate is rotated instead, the lock
// held until its charge is over; any other is released to the rmap walk.
// It reports whether the charge parked the proc.
func (g *MGLRU) isolate(v *sim.Env, w *reclaimWalk, oldest *mem.List) (parked bool) {
	f := oldest.PopTail()
	fr := g.k.Mem().Frame(f)
	g.trackRemove(fr.Gen, fr)
	w.budget--
	w.f = f

	// Tier protection: protected pages are moved to the youngest
	// generation instead of being considered for eviction (the kernel's
	// folio_inc_gen in sort_folio) — one rotation buys a full generation
	// window of protection, instead of the page reappearing as a
	// candidate on the very next pass.
	if int(fr.Tier) > w.allowTier ||
		(w.protectFile && fr.Flags&mem.FlagFile != 0) {
		w.shielded++
		if int(fr.Tier) <= w.allowTier {
			g.stats.FileProtected++
		}
		fr.Gen = g.maxSeq
		// Protection is a second chance, not a grant of tenure: the
		// kernel's folio_inc_gen clears LRU_REFS_MASK, so the page must
		// re-earn its tier through fresh accesses before the next time it
		// reaches the tail.
		fr.Refs = 0
		fr.Tier = 0
		g.genList(fr.Gen).PushHead(f)
		g.trackAdd(fr.Gen, fr)
		g.stats.TierProtected++
		w.at = reclaimShielded
		return !g.tryCharge(v, g.cfg.Costs.PageOp)
	}
	g.lock.Release(v)

	// The reverse-map confirmation happens without the lock, as in the
	// kernel (the folio is isolated).
	vpn, cost := g.k.RMap().Walk(f)
	g.stats.RMapWalks++
	w.vpn = vpn
	w.at = reclaimWalked
	return !g.tryCharge(v, cost+g.cfg.Costs.PageOp)
}

// LockStats exposes lruvec-lock contention counters.
func (g *MGLRU) LockStats() (acquisitions, contended uint64, waitTime sim.Duration) {
	return g.lock.Acquisitions, g.lock.Contended, g.lock.WaitTime
}

// DebugLock implements policy.LockDebugger.
func (g *MGLRU) DebugLock() *policy.LRULock { return &g.lock }

// Stats implements policy.Policy.
func (g *MGLRU) Stats() policy.Stats { return g.stats }

var _ policy.Policy = (*MGLRU)(nil)
