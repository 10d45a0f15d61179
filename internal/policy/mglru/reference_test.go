package mglru

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
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
