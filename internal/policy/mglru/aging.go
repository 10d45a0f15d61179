package mglru

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// Age implements policy.Policy: one aging pass. It walks the page table
// linearly, region by region, promoting pages whose accessed bits are set,
// then tries to open a new youngest generation.
//
// Which regions are scanned is the variant-defining decision:
//
//   - ModeBloom consults the filter built by the previous walk and the
//     eviction thread's spatial scans; an empty filter (first walk, or
//     nothing qualified) scans everything, as the kernel does.
//   - ModeAll scans every region regardless.
//   - ModeNone scans nothing — A bits are harvested only at eviction.
//   - ModeRand flips a coin per region.
//
// When the generation window is already at MaxGens, the walk still
// happens but promotes into the *current* youngest generation — the
// precision loss §V-B describes: "multiple consecutive scans promote
// pages all to the same generation".
//
// Age runs the walk of AgeStep, continuing it inline (sim.Env.Suspend)
// each time it parks.
func (g *MGLRU) Age(v *sim.Env) bool {
	var w policy.AgeWalk
	if g.AgeStep(v, &w) {
		g.ages.Continue(v, &w)
	}
	return w.Worked
}

// The points of a walk, in AgeWalk.At. Each is where the walk goes on
// after a park, so state is read at the same point relative to each
// park as in a blocking walk.
const (
	walkStart   = iota // serialize against another caller's walk
	walkWait           // another caller's walk is in flight
	walkNext           // check the region after w.Region
	walkCheck          // w.Region's check is charged
	walkLock           // take the lock to scan w.Region
	walkScanned        // w.Region's scan is charged
)

// AgeStep implements policy.Policy: Age as a resumable walk.
func (g *MGLRU) AgeStep(v *sim.Env, w *policy.AgeWalk) (parked bool) {
	table := g.k.Table()
	for {
		switch w.At {
		case walkStart:
			// Serialize walks: a second caller (inline reclaim racing the
			// aging daemon) waits for the in-flight walk and reports
			// whether it opened a generation, rather than
			// double-incrementing max_seq.
			if g.aging {
				w.Before, w.Epoch = g.maxSeq, g.walkEpoch
				w.At = walkWait
				continue
			}
			g.aging = true
			g.stats.AgingRuns++
			w.Before = g.maxSeq
			w.Target = g.maxSeq
			if g.nrGens() < g.cfg.MaxGens {
				w.Target = g.maxSeq + 1
			}
			w.Region = -1
			w.At = walkNext
		case walkWait:
			if g.walkEpoch == w.Epoch {
				v.TryWait(&g.agingDone)
				return true
			}
			w.Worked = g.maxSeq != w.Before
			return false
		case walkNext:
			w.Region++
			if w.Region == table.Regions() {
				g.finishWalk(v, w)
				return false
			}
			w.At = walkCheck
			if !g.tryCharge(v, g.cfg.Costs.RegionCheck) {
				return true
			}
		case walkCheck:
			if table.RegionPresent(w.Region) == 0 || !g.shouldScan(w.Region) {
				g.stats.RegionsSkipped++
				w.At = walkNext
				continue
			}
			w.At = walkLock
		case walkLock:
			// The region's batch promotion holds the lruvec lock;
			// fault-path insertions and eviction isolation queue behind
			// it. This is the channel through which scan volume becomes
			// fault latency.
			if !g.lock.TryAcquire(v, &w.Lock) {
				return true
			}
			cost, dense := g.harvest(w.Region, w.Target)
			w.Dense = dense
			w.At = walkScanned
			if !g.tryCharge(v, cost) {
				return true
			}
		case walkScanned:
			g.noteDense(w.Region, w.Dense)
			g.lock.Release(v)
			w.At = walkNext
		}
	}
}

// finishWalk ends the walk: it swaps the bloom filters, opens the new
// youngest generation when there was room, and lets the callers waiting
// on the walk go.
func (g *MGLRU) finishWalk(v *sim.Env, w *policy.AgeWalk) {
	if g.cfg.Mode == ModeBloom {
		// Swap filters: the one we just populated gates the next walk.
		g.cur, g.next = g.next, g.cur
		g.next.Clear()
	}
	if w.Worked = w.Target != w.Before; w.Worked {
		g.maxSeq++
		if g.nrGens() > g.cfg.MaxGens {
			panic("mglru: generation window exceeded MaxGens")
		}
		if g.tr != nil {
			g.tr.Instant(g.trTrack, "inc-max-seq", int64(g.maxSeq))
		}
	}
	g.aging = false
	g.walkEpoch++
	g.agingDone.Broadcast(v.Engine())
}

// shouldScan applies the variant's region filter.
func (g *MGLRU) shouldScan(r int) bool {
	switch g.cfg.Mode {
	case ModeAll:
		return true
	case ModeNone:
		return false
	case ModeRand:
		return g.rng.Bool(g.cfg.RandProb)
	default: // ModeBloom
		if g.cur.Adds() == 0 {
			return true // cold-start walk scans everything
		}
		return g.cur.MayContain(uint64(r))
	}
}

// harvest scans region r, clearing accessed bits and promoting the
// corresponding pages to generation target. It returns the scan's cost,
// for the caller to charge, and whether the region is dense enough for
// the next bloom filter (default: one accessed PTE per cache line of
// present PTEs), for the caller to note once the cost is charged. Shared
// by the aging walk and the eviction thread's spatial scan.
//
// The harvest itself is the table's HarvestRegion — a word-masked
// iteration over the accessed and present bit planes — which visits
// present-and-accessed pages in ascending VPN order.
func (g *MGLRU) harvest(r int, target uint64) (cost sim.Duration, dense bool) {
	table := g.k.Table()
	present, accessed := table.HarvestRegion(r, func(_ pagetable.VPN, f mem.FrameID) {
		g.promote(f, target)
	})
	perRegion := table.RegionPTEs()
	g.stats.RegionsScanned++
	g.stats.PTEScanned += uint64(perRegion)
	cost = g.cfg.Costs.PTEScan*sim.Duration(present) +
		g.cfg.Costs.HoleScan*sim.Duration(perRegion-present) +
		g.cfg.Costs.PageOp*sim.Duration(accessed)
	dense = g.cfg.Mode == ModeBloom && accessed > 0 &&
		accessed*g.cfg.BloomDensityDen >= present*g.cfg.BloomDensityNum
	return cost, dense
}

// noteDense records a harvested region in the next bloom filter when it
// was dense.
func (g *MGLRU) noteDense(r int, dense bool) {
	if dense {
		g.next.Add(uint64(r))
	}
}
