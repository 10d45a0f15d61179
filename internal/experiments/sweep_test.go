package experiments

import (
	"strings"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/sim"
)

func sweepTestOpts() Options {
	return Options{Trials: 2, Scale: 0.1, Seed: 0xABC, Parallelism: 1}
}

// TestSweepCellsCount: the enumeration yields exactly the axis product,
// with unique keys, in claim order (cost non-increasing, key ascending
// within equal cost).
func TestSweepCellsCount(t *testing.T) {
	spec := SweepSpec{
		Workloads: []string{"ycsb-c", "tpch"},
		Policies:  []string{PolClock, PolMGLRU},
		Base:      core.DefaultSystemConfig(),
		Ratios:    []float64{0.5, 0.9},
	}
	cells, err := SweepCells(sweepTestOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.CellCount(); len(cells) != want || want != 8 {
		t.Fatalf("got %d cells, CellCount=%d, want 8", len(cells), want)
	}
	seen := map[string]bool{}
	for i, c := range cells {
		if seen[c.Key] {
			t.Fatalf("duplicate key %s", c.Key)
		}
		seen[c.Key] = true
		if i > 0 {
			prev := cells[i-1]
			if prev.Cost < c.Cost || (prev.Cost == c.Cost && prev.Key >= c.Key) {
				t.Fatalf("cells not in claim order at %d: (%g,%s) then (%g,%s)",
					i, prev.Cost, prev.Key, c.Cost, c.Key)
			}
		}
	}
}

// TestSweepCellsStable: same spec, same options → identical enumeration,
// the property content-addressed job identity depends on.
func TestSweepCellsStable(t *testing.T) {
	spec := SweepSpec{
		Workloads: []string{"ycsb-c"},
		Policies:  []string{PolFIFO, PolRandom},
		Base:      core.DefaultSystemConfig(),
		Swaps:     []core.SwapKind{core.SwapSSD, core.SwapZRAM},
	}
	a, err := SweepCells(sweepTestOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepCells(sweepTestOpts(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("enumerations differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Cost != b[i].Cost {
			t.Fatalf("cell %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSweepCellsUnknownNames: bad names error cleanly instead of
// panicking — the contract the server's validation layer leans on.
func TestSweepCellsUnknownNames(t *testing.T) {
	base := core.DefaultSystemConfig()
	for _, tc := range []struct {
		spec SweepSpec
		want string
	}{
		{SweepSpec{Workloads: []string{"no-such"}, Policies: []string{PolClock}, Base: base}, "unknown workload"},
		{SweepSpec{Workloads: []string{"tpch"}, Policies: []string{"belady-prime"}, Base: base}, "unknown policy"},
	} {
		_, err := SweepCells(sweepTestOpts(), tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
}

// TestSweepCellsMatchFigureKeys: a sweep covering fig1's matrix
// enumerates the same cache keys CellsFor(Figure1) does — one identity
// shared between the serving path and the batch path.
func TestSweepCellsMatchFigureKeys(t *testing.T) {
	opts := sweepTestOpts()
	fig, err := CellsFor(opts, Fig1)
	if err != nil {
		t.Fatal(err)
	}
	paper := make([]string, 0, 5)
	for _, w := range Workloads(1) {
		paper = append(paper, w.Name)
	}
	spec := SweepSpec{
		Workloads: paper,
		Policies:  []string{PolClock, PolMGLRU},
		Base:      core.DefaultSystemConfig(),
	}
	sweep, err := SweepCells(opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	figKeys := map[string]bool{}
	for _, c := range fig {
		figKeys[c.Key] = true
	}
	for _, c := range sweep {
		if !figKeys[c.Key] {
			t.Errorf("sweep cell %s/%s not in fig1 enumeration (key %s)", c.Workload, c.Policy, c.Key)
		}
	}
	if len(sweep) != len(fig) {
		t.Fatalf("sweep enumerated %d cells, fig1 %d", len(sweep), len(fig))
	}
}

// TestRegistryNames: the name listings resolve without panicking and
// cover the figure matrices.
func TestRegistryNames(t *testing.T) {
	for _, n := range PolicyNames() {
		if got := PolicyByName(n).Name; got != n {
			t.Errorf("PolicyByName(%q).Name = %q", n, got)
		}
	}
	for _, n := range WorkloadNames() {
		if got := WorkloadByName(n, 1).Name; got != n {
			t.Errorf("WorkloadByName(%q).Name = %q", n, got)
		}
	}
	if len(PolicyNames()) < 6 || len(WorkloadNames()) < 6 {
		t.Fatalf("registry vocabulary shrank: %d policies, %d workloads",
			len(PolicyNames()), len(WorkloadNames()))
	}
}

// TestCostTablesUseRegisteredNames: every weight in the cell cost model
// names a registered workload or policy, so a deleted or renamed one
// cannot leave an entry no cell ever looks up.
func TestCostTablesUseRegisteredNames(t *testing.T) {
	check := func(kind string, table map[string]float64, names []string) {
		known := map[string]bool{}
		for _, n := range names {
			known[n] = true
		}
		for n := range table {
			if !known[n] {
				t.Errorf("cost table weighs unregistered %s %q", kind, n)
			}
		}
	}
	check("workload", costByWorkload, WorkloadNames())
	check("policy", costByPolicy, PolicyNames())
}

// TestSummarizeSeriesBlob: a stored envelope digests to the right
// summary; garbage and wrong-version blobs are rejected.
func TestSummarizeSeriesBlob(t *testing.T) {
	s := &Series{
		Workload: "tpch",
		Policy:   PolClock,
		System:   core.DefaultSystemConfig(),
		Trials:   make([]core.Metrics, 2),
	}
	s.Trials[0].Runtime = sim.Time(2 * sim.Second)
	s.Trials[1].Runtime = sim.Time(4 * sim.Second)
	blob, err := encodeSeries("some-key", s)
	if err != nil {
		t.Fatal(err)
	}
	sum, key, ok := SummarizeSeriesBlob(blob)
	if !ok {
		t.Fatal("valid envelope rejected")
	}
	if key != "some-key" {
		t.Fatalf("embedded key = %q, want some-key", key)
	}
	if sum.Workload != "tpch" || sum.Policy != PolClock || sum.Trials != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.MeanRuntimeSec != 3.0 {
		t.Fatalf("MeanRuntimeSec = %v, want 3.0", sum.MeanRuntimeSec)
	}
	if _, _, ok := SummarizeSeriesBlob([]byte("not json")); ok {
		t.Error("garbage blob accepted")
	}
	if _, _, ok := SummarizeSeriesBlob([]byte(`{"Version":999}`)); ok {
		t.Error("wrong-version blob accepted")
	}
}
