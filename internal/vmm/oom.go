package vmm

import (
	"fmt"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
)

// OOMError is panicked when the swap area is exhausted and the OOM reaper
// can free nothing — every slot belongs to the faulting region itself or
// the area is degenerately small. The experiment harness classifies it as
// a transient, retryable trial failure.
type OOMError struct {
	At   sim.Time
	VPN  pagetable.VPN // the page whose eviction needed a slot
	Used int           // slots in use at the time
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("vmm: swap exhausted at %v evicting vpn %d (%d slots in use) and the OOM reaper found no victim", e.At, e.VPN, e.Used)
}

// oomKill models the kernel's swap-exhaustion OOM path scaled to this
// simulator's single address space: page-table regions stand in for
// processes. The victim is the region with the highest badness score —
// resident plus swapped pages, the kernel's rss + swapents — among
// regions that actually hold swap slots; ties break toward the lowest
// region index so victim selection is deterministic. The victim's swap
// copies are then reaped: slots freed for reuse, PTE swap references and
// shadow entries dropped, so the killed region's pages refault later as
// zero-fill minors (the data loss an OOM kill is).
//
// Reaping is pure bookkeeping (no yields), so the caller's eviction
// continues atomically with a refilled area.
func (m *Manager) oomKill(v *sim.Env, evicting pagetable.VPN) {
	victim, reapable := -1, 0
	best := -1
	regions := m.table.Regions()
	for r := 0; r < regions; r++ {
		// The table maintains per-region swap-slot counts incrementally,
		// so badness scoring is O(regions), not O(pages).
		swapped := m.table.RegionSwapped(r)
		if swapped == 0 {
			continue // nothing to reap from this region
		}
		score := m.table.RegionPresent(r) + swapped
		if score > best {
			best, victim, reapable = score, r, swapped
		}
	}
	if victim < 0 {
		if m.tr != nil {
			// Last words for the flight recorder: the panic unwinds to the
			// engine, and the harness dumps the ring with this as the newest
			// event.
			m.tr.Instant(m.tr.Track(v.Proc().Name()), "oom-unreapable", int64(evicting))
		}
		panic(&OOMError{At: v.Now(), VPN: evicting, Used: m.area.InUse()})
	}
	m.counters.OOMKills++
	m.counters.OOMReapedSlots += uint64(reapable)
	if m.tr != nil {
		m.tr.Instant(m.tr.Track(v.Proc().Name()), "oom-kill", int64(victim))
	}
	m.reapRegion(victim)
}

// reapRegion discards every swap copy held by region r.
func (m *Manager) reapRegion(r int) {
	m.table.ReapRegion(r, func(vpn pagetable.VPN, slot int32) {
		m.dev.FreeSlot(slot)
		m.area.Free(slot)
		*m.slotOwner.At(int(slot)) = -1
		m.shadows.Drop(vpn)
		if m.audit != nil {
			m.audit.Reaped(vpn)
		}
	})
}
