package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
)

// TestCellsForMatchesExecution is the load-bearing coupling test of the
// shard protocol: the keys CellsFor enumerates (what workers claim) must
// be exactly the keys a real run files its results under in the
// checkpoint store (what the final sweep resumes from). A drift between
// the two would make sharded prefill useless — every cell would silently
// re-execute serially.
func TestCellsForMatchesExecution(t *testing.T) {
	opts := Options{Trials: 1, Scale: 0.1, Seed: 0xABC}
	cells, err := CellsFor(opts, Figures["fig1"])
	if err != nil {
		t.Fatal(err)
	}
	// fig1: all 5 registry workloads x {clock, mglru}.
	if len(cells) != 10 {
		t.Fatalf("fig1 enumerates %d cells, want 10", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Cost < cells[i].Cost {
			t.Fatalf("cells not sorted cost-descending at %d: %v < %v", i, cells[i-1].Cost, cells[i].Cost)
		}
	}

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	execOpts := opts
	execOpts.Checkpoint = store
	r := NewRunner(execOpts)
	if _, err := Figures["fig1"](r); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(cells) {
		t.Fatalf("store holds %d entries after fig1, enumeration predicted %d", store.Len(), len(cells))
	}
	for _, c := range cells {
		if !store.Has(c.Key) {
			t.Fatalf("enumerated key for %s/%s not in store after execution:\n%s", c.Workload, c.Policy, c.Key)
		}
	}
}

// TestDefaultFanoutOneKey: an explicit default region fanout and the
// unset knob lay workloads out identically, so they must file results
// under identical keys rather than storing each series twice.
func TestDefaultFanoutOneKey(t *testing.T) {
	keys := func(region int) []string {
		cells, err := CellsFor(Options{Trials: 1, Scale: 0.1, Seed: 0xABC, RegionPTEs: region}, Figures["fig1"])
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = c.Key
		}
		return out
	}
	unset, explicit := keys(0), keys(workload.DefaultRegionPTEs)
	if strings.Join(unset, "\n") != strings.Join(explicit, "\n") {
		t.Fatalf("RegionPTEs %d forks cache keys from the unset default:\n%s\nvs\n%s",
			workload.DefaultRegionPTEs, explicit[0], unset[0])
	}
}

// TestCellsForExecutesNothing: enumeration must not run trials or build
// workloads (it must be near-free even for the full figure set).
func TestCellsForExecutesNothing(t *testing.T) {
	opts := Options{Trials: 1, Scale: 0.1, Seed: 0xABC}
	built := false
	w := WorkloadByName("ycsb-c", 0.1)
	inner := w.Make
	w.Make = func() workload.Workload { built = true; return inner() }

	r := NewRunner(opts)
	r.collect = newCellCollector()
	if _, err := r.Run(w, PolicyByName(PolClock), SystemAt(0.5, core.SwapSSD)); err != nil {
		t.Fatal(err)
	}
	if built {
		t.Fatal("collect-mode Run constructed the workload")
	}
	if len(r.collect.cells) != 1 {
		t.Fatalf("collected %d cells, want 1", len(r.collect.cells))
	}
}

// TestVetoFailsSeriesWithoutExecution: a vetoed key errors immediately
// and runs nothing; RunMatrix records it as a per-cell failure and the
// rest of the matrix completes.
func TestVetoFailsSeriesWithoutExecution(t *testing.T) {
	opts := fastOpts()
	opts.Veto = func(key string) error {
		if strings.Contains(key, "|clock|") {
			return os.ErrPermission // stand-in for a quarantine record
		}
		return nil
	}
	r := NewRunner(opts)
	ws := []WorkloadSpec{WorkloadByName("ycsb-c", opts.Scale)}
	res, err := r.RunMatrix(ws, Policies(PolClock, PolFIFO), SystemAt(0.5, core.SwapSSD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("vetoed cell reported complete")
	}
	if len(res.Failed) != 1 || res.Failed[0].Policy != PolClock {
		t.Fatalf("Failed = %+v, want exactly the clock cell", res.Failed)
	}
	if res.Get("ycsb-c", PolFIFO) == nil {
		t.Fatal("non-vetoed cell missing")
	}
}

// corruptingPolicy aliases a second VPN onto a resident frame after a
// fixed number of page-ins — the double-mapping bug the auditor exists to
// catch — using only the public policy.Kernel surface.
type corruptingPolicy struct {
	policy.Policy
	k   policy.Kernel
	ins int
}

func (c *corruptingPolicy) Attach(k policy.Kernel) {
	c.k = k
	c.Policy.Attach(k)
}

func (c *corruptingPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	c.Policy.PageIn(v, f, sh)
	c.ins++
	if c.ins == 40 {
		tbl := c.k.Table()
		for i := 0; i < tbl.Pages(); i++ {
			pte := tbl.PTE(pagetable.VPN(i))
			if pte.Mapped() && !pte.Present() && pte.Swap == pagetable.NilSwap {
				tbl.Insert(pagetable.VPN(i), f, false)
				return
			}
		}
	}
}

// TestAuditFailureDumpsInvariantDiffToFlightFile is the end-to-end
// satellite contract: a trial failing its invariant audit must leave a
// flight.txt artifact whose contents include the invariant diff itself —
// via the auditor→telemetry Note hook — not just the generic ring.
func TestAuditFailureDumpsInvariantDiffToFlightFile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Trials: 1, Scale: 0.1, Seed: 0xABC, Audit: true, TraceDir: dir}
	r := NewRunner(opts)
	base := PolicyByName(PolMGLRU)
	p := PolicySpec{Name: base.Name, Make: func() policy.Policy {
		return &corruptingPolicy{Policy: mglru.New(mglru.Default())}
	}}
	_, err := r.Run(WorkloadByName("ycsb-c", opts.Scale), p, SystemAt(0.5, core.SwapSSD))
	if err == nil {
		t.Fatal("corrupted trial passed its audit")
	}
	if !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("trial failed for a different reason: %v", err)
	}
	flights, globErr := filepath.Glob(filepath.Join(dir, "*flight.txt"))
	if globErr != nil || len(flights) == 0 {
		t.Fatalf("no flight.txt artifact written (glob err %v)", globErr)
	}
	data, readErr := os.ReadFile(flights[0])
	if readErr != nil {
		t.Fatal(readErr)
	}
	dump := string(data)
	if !strings.Contains(dump, "invariant:") {
		t.Fatalf("flight.txt lacks the invariant diff notes:\n%s", dump)
	}
	if !strings.Contains(dump, "owned by two VPNs") {
		t.Fatalf("flight.txt lacks the specific violation:\n%s", dump)
	}
}
