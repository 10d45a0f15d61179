package tpch

import (
	"sync"
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
)

// drain runs a stream to completion, returning access count, barrier
// count, and the set-of-pages bounds check result against the table.
func drain(t *testing.T, s workload.Stream, tb *pagetable.Table) (accesses, barriers int) {
	t.Helper()
	var op workload.Op
	for s.Next(&op) {
		switch op.Kind {
		case workload.OpAccess:
			accesses++
			if !tb.PTE(op.VPN).Mapped() {
				t.Fatalf("access to unmapped vpn %d", op.VPN)
			}
		case workload.OpBarrier:
			barriers++
		}
	}
	return accesses, barriers
}

func TestStreamsStayInMappedSpace(t *testing.T) {
	w := New(DefaultConfig())
	tb := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(tb)
	for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000)) {
		drain(t, s, tb)
	}
}

func TestAllThreadsSameBarrierCount(t *testing.T) {
	w := New(DefaultConfig())
	tb := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(tb)
	streams := w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000))
	if len(streams) != 12 {
		t.Fatalf("threads = %d, want 12", len(streams))
	}
	var want int
	for i, s := range streams {
		_, b := drain(t, s, tb)
		if i == 0 {
			want = b
		} else if b != want {
			t.Fatalf("thread %d has %d barriers, thread 0 has %d", i, b, want)
		}
	}
	if want == 0 {
		t.Fatal("no barriers emitted")
	}
}

func TestWorkBalancedAcrossThreads(t *testing.T) {
	w := New(DefaultConfig())
	tb := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(tb)
	streams := w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000))
	counts := make([]int, len(streams))
	for i, s := range streams {
		counts[i], _ = drain(t, s, tb)
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Spark-SQL-like balance: the paper's linearity argument needs
	// near-equal per-thread work.
	if float64(max) > 1.15*float64(min) {
		t.Fatalf("imbalanced: min=%d max=%d", min, max)
	}
}

func TestDeterministicStreams(t *testing.T) {
	w := New(DefaultConfig())
	collect := func() []workload.Op {
		var ops []workload.Op
		var op workload.Op
		s := w.Threads(sim.NewRNG(42), sim.NewRNG(42+1000))[3]
		for s.Next(&op) {
			ops = append(ops, op)
		}
		return ops
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestFootprintMatchesSegments(t *testing.T) {
	cfg := DefaultConfig()
	w := New(cfg)
	want := cfg.LineitemPages + cfg.OrdersPages + cfg.CustomerPages + cfg.HashPages + cfg.InputPages
	if w.FootprintPages() != want {
		t.Fatalf("footprint = %d, want %d", w.FootprintPages(), want)
	}
}

func TestInputSegmentIsFileBacked(t *testing.T) {
	w := New(DefaultConfig())
	tb := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(tb)
	if !tb.PTE(w.input.Base).File() {
		t.Fatal("input pages should be file-backed")
	}
	if tb.PTE(w.lineitem.Base).File() {
		t.Fatal("lineitem should be anonymous")
	}
}

func TestProbesLandInHashRegion(t *testing.T) {
	w := New(DefaultConfig())
	s := w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000))[0]
	var op workload.Op
	hashHits := 0
	for s.Next(&op) {
		if op.Kind == workload.OpAccess && w.hash.Contains(op.VPN) {
			hashHits++
		}
	}
	if hashHits == 0 {
		t.Fatal("no hash-region accesses")
	}
}

func TestProbesClusterAtHashRegionFront(t *testing.T) {
	w := New(DefaultConfig())
	s := w.Threads(sim.NewRNG(1), sim.NewRNG(2))[0]
	var op workload.Op
	front, back := 0, 0
	for s.Next(&op) {
		if op.Kind == workload.OpAccess && w.hash.Contains(op.VPN) && !op.Write {
			if int(op.VPN-w.hash.Base) < w.hash.Pages/4 {
				front++
			} else {
				back++
			}
		}
	}
	// Zipfian clustering: the front quarter must absorb well over its
	// proportional share of probes.
	if front < back {
		t.Fatalf("probes not clustered: front=%d back=%d", front, back)
	}
}

func TestTaskAssignmentVariesPerTrial(t *testing.T) {
	w := New(DefaultConfig())
	collect := func(trial uint64) []workload.Op {
		var ops []workload.Op
		var op workload.Op
		s := w.Threads(sim.NewRNG(1), sim.NewRNG(trial))[0]
		for i := 0; i < 200 && s.Next(&op); i++ {
			ops = append(ops, op)
		}
		return ops
	}
	a, b := collect(1), collect(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("trial seed does not change task assignment")
	}
}

func TestTotalWorkIdenticalAcrossTrials(t *testing.T) {
	// Dynamic scheduling moves work between threads but must not change
	// the total work done ("otherwise identical executions").
	w := New(DefaultConfig())
	total := func(trial uint64) int {
		n := 0
		var op workload.Op
		for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(trial)) {
			for s.Next(&op) {
				if op.Kind == workload.OpAccess {
					n++
				}
			}
		}
		return n
	}
	if a, b := total(1), total(2); a != b {
		t.Fatalf("total accesses differ across trials: %d vs %d", a, b)
	}
}

// TestTrialsShareOneProbeGenerator calls Threads from concurrent
// trials, as the experiment runner does: every stream of every trial
// draws from the one generator the workload builds on first use.
func TestTrialsShareOneProbeGenerator(t *testing.T) {
	w := New(DefaultConfig())
	trials := make([][]workload.Stream, 4)
	var wg sync.WaitGroup
	for i := range trials {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trials[i] = w.Threads(sim.NewRNG(1), sim.NewRNG(uint64(i)))
		}()
	}
	wg.Wait()
	first := trials[0][0].(*stream)
	if first.zipf == nil {
		t.Fatal("no generator built")
	}
	for i, streams := range trials {
		for tid, s := range streams {
			if s.(*stream).zipf != first.zipf {
				t.Fatalf("trial %d thread %d has a generator of its own", i, tid)
			}
		}
	}
}
