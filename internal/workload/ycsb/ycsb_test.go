package ycsb

import (
	"sync"
	"testing"

	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

func small(mix Mix) Config {
	cfg := DefaultConfig(mix)
	cfg.Items = 2000
	cfg.Requests = 10000
	return cfg
}

type tally struct {
	accesses, writes   int
	reqReads, reqWrite int
	inReq              bool
}

func drain(t *testing.T, s workload.Stream, tb *pagetable.Table) tally {
	t.Helper()
	var op workload.Op
	var tl tally
	for s.Next(&op) {
		switch op.Kind {
		case workload.OpAccess:
			tl.accesses++
			if op.Write {
				tl.writes++
			}
			if !tb.PTE(op.VPN).Mapped() {
				t.Fatalf("access to unmapped vpn %d", op.VPN)
			}
		case workload.OpReqStart:
			if tl.inReq {
				t.Fatal("nested request")
			}
			tl.inReq = true
			if op.Class == workload.ReqRead {
				tl.reqReads++
			} else {
				tl.reqWrite++
			}
		case workload.OpReqEnd:
			if !tl.inReq {
				t.Fatal("ReqEnd without ReqStart")
			}
			tl.inReq = false
		}
	}
	if tl.inReq {
		t.Fatal("stream ended mid-request")
	}
	return tl
}

func table(w *YCSB) *pagetable.Table {
	tb := pagetable.NewWithRegionSize(w.TableRegions(), w.RegionPTEs())
	w.Layout(tb)
	return tb
}

func TestRequestCountsMatchConfig(t *testing.T) {
	cfg := small(MixA)
	w := New(cfg)
	tb := table(w)
	total := 0
	for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000)) {
		tl := drain(t, s, tb)
		total += tl.reqReads + tl.reqWrite
	}
	if total != cfg.Requests {
		t.Fatalf("requests = %d, want %d", total, cfg.Requests)
	}
}

func TestMixRatios(t *testing.T) {
	cases := []struct {
		mix Mix
		lo  float64
		hi  float64
	}{
		{MixA, 0.45, 0.55},
		{MixB, 0.92, 0.98},
		{MixC, 1.0, 1.0},
	}
	for _, c := range cases {
		w := New(small(c.mix))
		tb := table(w)
		reads, total := 0, 0
		for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000)) {
			tl := drain(t, s, tb)
			reads += tl.reqReads
			total += tl.reqReads + tl.reqWrite
		}
		frac := float64(reads) / float64(total)
		if frac < c.lo || frac > c.hi {
			t.Errorf("%v read fraction = %.3f, want [%.2f, %.2f]", c.mix, frac, c.lo, c.hi)
		}
	}
}

func TestMixCNeverWritesAfterLoad(t *testing.T) {
	cfg := small(MixC)
	w := New(cfg)
	tb := table(w)
	for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000)) {
		tl := drain(t, s, tb)
		// Load-phase writes are exactly one per owned item.
		if tl.reqWrite != 0 {
			t.Fatal("mix C issued write requests")
		}
	}
}

func TestLoadPhaseTouchesAllItems(t *testing.T) {
	cfg := small(MixA)
	cfg.Requests = 4 // negligible request phase
	w := New(cfg)
	tb := table(w)
	writes := 0
	for _, s := range w.Threads(sim.NewRNG(1), sim.NewRNG(1+1000)) {
		tl := drain(t, s, tb)
		writes += tl.writes
	}
	if writes < cfg.Items {
		t.Fatalf("load wrote %d items, want >= %d", writes, cfg.Items)
	}
}

func TestNames(t *testing.T) {
	if New(small(MixA)).Name() != "ycsb-a" ||
		New(small(MixB)).Name() != "ycsb-b" ||
		New(small(MixC)).Name() != "ycsb-c" {
		t.Fatal("names wrong")
	}
}

func TestContentClassSplitsIndexAndSlabs(t *testing.T) {
	w := New(small(MixA))
	st := w.Store()
	slabStart := int64(st.End()) - int64(st.SlabPages())
	if w.ContentClass(slabStart) != zram.ClassRandom {
		t.Fatal("slab pages should be incompressible")
	}
	if w.ContentClass(slabStart-1) == zram.ClassRandom {
		t.Fatal("index pages should be compressible")
	}
}

func TestDeterministicStreams(t *testing.T) {
	w := New(small(MixB))
	collect := func() []workload.Op {
		var ops []workload.Op
		var op workload.Op
		s := w.Threads(sim.NewRNG(7), sim.NewRNG(7+1000))[1]
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

// TestTrialsShareOneKeyGenerator calls Threads from concurrent
// trials, as the experiment runner does: every stream of every trial
// draws from the one generator the workload builds on first use.
func TestTrialsShareOneKeyGenerator(t *testing.T) {
	w := New(small(MixA))
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
