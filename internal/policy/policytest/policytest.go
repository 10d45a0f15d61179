// Package policytest provides a minimal in-memory Kernel implementation
// so replacement policies can be unit-tested without the full memory
// manager: evictions free the frame immediately and remember the shadow,
// and fault-ins can be simulated directly.
package policytest

import (
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/rmap"
	"mglrusim/internal/sim"
)

// Kernel is a test double for policy.Kernel.
type Kernel struct {
	M   *mem.Memory
	T   *pagetable.Table
	R   *rmap.Map
	RNG *sim.RNG

	// Shadows records the shadow passed to each EvictPage call, keyed by
	// the evicted VPN.
	Shadows map[pagetable.VPN]policy.Shadow
	// EvictOrder records VPNs in eviction order.
	EvictOrder []pagetable.VPN
	// AgingRequests counts RequestAging calls.
	AgingRequests int

	// OnEvict, when set, is called for every EvictPage after the
	// bookkeeping completes (the replay harness hooks it to count faults
	// and drive auditors).
	OnEvict func(v *sim.Env, vpn pagetable.VPN, sh policy.Shadow)

	nextSlot int32
}

// New creates a test kernel with frames physical pages and a page table of
// regions PMD regions (all mapped as anonymous memory).
func New(frames, regions int, seed uint64) *Kernel {
	t := pagetable.New(regions)
	t.MapRange(0, regions*pagetable.PTEsPerRegion, false)
	return NewWithTable(frames, t, seed)
}

// NewWithTable creates a test kernel over a caller-built page table (the
// replay harness sizes tables to match recorded traces).
func NewWithTable(frames int, t *pagetable.Table, seed uint64) *Kernel {
	rng := sim.NewRNG(seed)
	m := mem.New(frames)
	return &Kernel{
		M:       m,
		T:       t,
		R:       rmap.New(m, rmap.CostModel{Base: 100}, rng.Stream(1)),
		RNG:     rng.Stream(2),
		Shadows: map[pagetable.VPN]policy.Shadow{},
	}
}

// Mem implements policy.Kernel.
func (k *Kernel) Mem() *mem.Memory { return k.M }

// Table implements policy.Kernel.
func (k *Kernel) Table() *pagetable.Table { return k.T }

// RMap implements policy.Kernel.
func (k *Kernel) RMap() *rmap.Map { return k.R }

// Rand implements policy.Kernel.
func (k *Kernel) Rand() *sim.RNG { return k.RNG }

// RequestAging implements policy.Kernel.
func (k *Kernel) RequestAging() { k.AgingRequests++ }

// EvictPage implements policy.Kernel: instantly evicts to a fake swap.
func (k *Kernel) EvictPage(v *sim.Env, f mem.FrameID, sh policy.Shadow) {
	fr := k.M.Frame(f)
	vpn := pagetable.VPN(fr.VPN)
	k.nextSlot++
	k.T.Evict(vpn, k.nextSlot)
	k.Shadows[vpn] = sh
	k.EvictOrder = append(k.EvictOrder, vpn)
	fr.VPN = -1
	k.M.Free(f)
	if k.OnEvict != nil {
		k.OnEvict(v, vpn, sh)
	}
}

// FaultIn makes vpn resident (allocating a frame) and informs the policy,
// passing a shadow if the page was previously evicted. It returns the
// frame. Panics if memory is exhausted — tests should reclaim first.
func (k *Kernel) FaultIn(v *sim.Env, p policy.Policy, vpn pagetable.VPN, write, file bool) mem.FrameID {
	f := k.M.Alloc()
	if f == mem.NilFrame {
		panic("policytest: out of frames")
	}
	k.T.Insert(vpn, f, write)
	fr := k.M.Frame(f)
	fr.VPN = int64(vpn)
	if file {
		fr.Flags |= mem.FlagFile
	}
	var sh *policy.Shadow
	if s, ok := k.Shadows[vpn]; ok {
		sh = &s
		delete(k.Shadows, vpn)
	}
	p.PageIn(v, f, sh)
	return f
}

// Touch simulates a hardware access to a resident page (sets A/D bits).
// Returns false if the page is not resident.
func (k *Kernel) Touch(vpn pagetable.VPN, write bool) bool {
	_, ok := k.T.Walk(vpn, write)
	return ok
}

// Run executes fn inside a single simulated proc and returns the engine
// end time.
func Run(fn func(*sim.Env)) sim.Time {
	e := sim.NewEngine(4)
	e.Spawn("test", false, fn)
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Now()
}

var _ policy.Kernel = (*Kernel)(nil)
