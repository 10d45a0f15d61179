package mglru

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// referenceAge is the aging pass as a plain blocking walk: every park is
// a blocking Charge, Acquire or Wait that resumes the caller's own
// coroutine. It is the reference the resumable walk is held to
// (TestAgeStepMatchesReference).

func (g *MGLRU) referenceAge(v *sim.Env) bool {
	// Serialize walks: a second caller (inline reclaim racing the aging
	// daemon) waits for the in-flight walk and reports whether it opened
	// a generation, rather than double-incrementing max_seq.
	if g.aging {
		before := g.maxSeq
		epoch := g.walkEpoch
		for g.walkEpoch == epoch {
			v.Wait(&g.agingDone)
		}
		return g.maxSeq != before
	}
	g.aging = true
	defer func() {
		g.aging = false
		g.walkEpoch++
		g.agingDone.Broadcast(v.Engine())
	}()

	g.stats.AgingRuns++

	room := g.nrGens() < g.cfg.MaxGens
	target := g.maxSeq
	if room {
		target = g.maxSeq + 1
	}

	table := g.k.Table()
	regions := table.Regions()
	for r := 0; r < regions; r++ {
		g.charge(v, g.cfg.Costs.RegionCheck)
		if table.RegionPresent(r) == 0 {
			g.stats.RegionsSkipped++
			continue
		}
		if !g.shouldScan(r) {
			g.stats.RegionsSkipped++
			continue
		}
		// The region's batch promotion holds the lruvec lock; fault-path
		// insertions and eviction isolation queue behind it. This is the
		// channel through which scan volume becomes fault latency.
		g.lock.Acquire(v)
		g.referenceScanRegion(v, r, target)
		g.lock.Release(v)
	}

	if g.cfg.Mode == ModeBloom {
		// Swap filters: the one we just populated gates the next walk.
		g.cur, g.next = g.next, g.cur
		g.next.Clear()
	}
	if room {
		g.maxSeq++
		if g.nrGens() > g.cfg.MaxGens {
			panic("mglru: generation window exceeded MaxGens")
		}
		if g.tr != nil {
			g.tr.Instant(g.trTrack, "inc-max-seq", int64(g.maxSeq))
		}
		return true
	}
	return false
}

// referenceScanRegion scans region r, clearing accessed bits and promoting the
// corresponding pages to generation target. It records the region in the
// next bloom filter when the accessed density meets the configured
// threshold (default: one accessed PTE per cache line of present PTEs).
// Shared by the aging walk and the eviction thread's spatial scan.
//
// The harvest itself is the table's HarvestRegion — a word-masked
// iteration over the accessed and present bit planes — which visits
// present-and-accessed pages in ascending VPN order.
func (g *MGLRU) referenceScanRegion(v *sim.Env, r int, target uint64) {
	table := g.k.Table()
	present, accessed := table.HarvestRegion(r, func(_ pagetable.VPN, f mem.FrameID) {
		g.promote(f, target)
	})
	promoted := accessed
	perRegion := table.RegionPTEs()
	g.stats.RegionsScanned++
	g.stats.PTEScanned += uint64(perRegion)
	cost := g.cfg.Costs.PTEScan*sim.Duration(present) +
		g.cfg.Costs.HoleScan*sim.Duration(perRegion-present) +
		g.cfg.Costs.PageOp*sim.Duration(promoted)
	g.charge(v, cost)

	if g.cfg.Mode == ModeBloom && accessed > 0 &&
		accessed*g.cfg.BloomDensityDen >= present*g.cfg.BloomDensityNum {
		g.next.Add(uint64(r))
	}
}

// referenceReclaim is the eviction pass as a plain blocking walk: every
// park is a blocking Charge, Acquire, Age or EvictPage that resumes the
// caller's own coroutine. It is the reference the resumable walk is held
// to (TestReclaimMatchesReference).
func (g *MGLRU) referenceReclaim(v *sim.Env, target int) int {
	if target <= 0 {
		return 0
	}
	evicted := 0
	budget := target*g.cfg.ScanBatch + g.cfg.ScanBatch

	allowTier := g.cfg.Tiers - 1
	if g.cfg.TierProtection && g.cfg.Tiers > 1 {
		allowTier = g.tiers.ProtectedTier(1)
	}
	// One file-gain decision per reclaim pass (a control period). When
	// active, eviction pressure is steered onto the anon side — the
	// kernel's get_type_to_scan picking the type whose evictions are NOT
	// coming back; the progress fallback below keeps reclaim live when
	// the tail holds nothing but file pages.
	protectFile := false
	if g.fileGain != nil {
		protectFile = g.fileGain.ProtectFile(1)
	}
	// shielded counts candidates tier protection or the file shield
	// turned away this pass — the progress-guarantee fallback below keys
	// off it.
	shielded := 0

scan:
	for evicted < target && budget > 0 {
		g.lock.Acquire(v)
		g.advanceMinSeq()
		oldest := g.genList(g.minSeq)
		if oldest.Empty() && g.k.Table().PresentPages() == 0 {
			g.lock.Release(v)
			break // nothing resident anywhere
		}
		if oldest.Empty() {
			// Everything younger is protected by the generation window;
			// force aging to open a new youngest generation, then retry.
			g.lock.Release(v)
			g.k.RequestAging()
			if !g.Age(v) {
				break
			}
			continue
		}
		if g.nrGens() < g.cfg.MinGens {
			g.lock.Release(v)
			g.k.RequestAging()
			g.Age(v)
			continue
		}

		// Isolate the candidate under the lock, so concurrent
		// aging/reclaim passes cannot move it.
		f := oldest.PopTail()
		fr := g.k.Mem().Frame(f)
		g.trackRemove(fr.Gen, fr)
		budget--

		// Tier protection: protected pages are moved to the youngest
		// generation instead of being considered for eviction (the
		// kernel's folio_inc_gen in sort_folio) — one rotation buys a
		// full generation window of protection, instead of the page
		// reappearing as a candidate on the very next pass.
		if int(fr.Tier) > allowTier ||
			(protectFile && fr.Flags&mem.FlagFile != 0) {
			shielded++
			if int(fr.Tier) <= allowTier {
				g.stats.FileProtected++
			}
			fr.Gen = g.maxSeq
			// Protection is a second chance, not a grant of tenure: the
			// kernel's folio_inc_gen clears LRU_REFS_MASK, so the page
			// must re-earn its tier through fresh accesses before the
			// next time it reaches the tail.
			fr.Refs = 0
			fr.Tier = 0
			g.genList(fr.Gen).PushHead(f)
			g.trackAdd(fr.Gen, fr)
			g.stats.TierProtected++
			g.charge(v, g.cfg.Costs.PageOp)
			g.lock.Release(v)
			continue
		}
		g.lock.Release(v)

		// The reverse-map confirmation happens without the lock, as in
		// the kernel (the folio is isolated).
		vpn, cost := g.k.RMap().Walk(f)
		g.stats.RMapWalks++
		g.charge(v, cost+g.cfg.Costs.PageOp)

		if g.k.Table().TestAndClearAccessed(vpn) {
			// Accessed since last scan: promote to youngest and exploit
			// spatial locality around the hot PTE.
			g.lock.Acquire(v)
			fr.Gen = g.maxSeq
			g.genList(fr.Gen).PushHead(f)
			g.trackAdd(fr.Gen, fr)
			g.stats.Rotated++
			if fr.Flags&mem.FlagFile != 0 && fr.Refs < 255 {
				fr.Refs++
				fr.Tier = g.tierOf(fr.Refs)
			}
			if g.cfg.SpatialScan {
				r := g.k.Table().RegionOf(vpn)
				cost, dense := g.harvest(r, g.maxSeq)
				g.charge(v, cost)
				g.noteDense(r, dense)
				// Feedback into the aging walk's next filter.
				if g.cfg.Mode == ModeBloom {
					g.next.Add(uint64(r))
				}
			}
			g.lock.Release(v)
			continue
		}

		// Cold: evict. The frame is already isolated; eviction I/O
		// happens without the lock.
		sh := policy.Shadow{Gen: fr.Gen, Tier: fr.Tier, Refs: fr.Refs, EvictedAt: v.Now()}
		if g.cfg.TierProtection {
			g.tiers.RecordEviction(int(fr.Tier))
		}
		if g.fileGain != nil {
			g.fileGain.RecordEviction(fr.Flags&mem.FlagFile != 0)
		}
		g.stats.Evicted++
		g.k.EvictPage(v, f, sh)
		evicted++
	}
	// Progress guarantee: a whole pass that evicts nothing while
	// protection turned candidates away means the oldest generations hold
	// only protected pages (hot-tier file pages under refault imbalance).
	// Memory pressure outranks tier balance — the kernel's equivalent is
	// scan-priority escalation ignoring protection — so drop every shield,
	// refill the scan budget, and retry once.
	if evicted == 0 && shielded > 0 && (allowTier < g.cfg.Tiers-1 || protectFile) {
		allowTier = g.cfg.Tiers - 1
		protectFile = false
		shielded = 0
		budget = target*g.cfg.ScanBatch + g.cfg.ScanBatch
		goto scan
	}
	return evicted
}
