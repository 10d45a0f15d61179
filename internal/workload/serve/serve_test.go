package serve

import (
	"sync"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
)

// drain materializes every thread's op stream round-robin (the order the
// determinism property is stated over).
func drain(w *Serve, planSeed, trialSeed uint64, maxOps int) []workload.Op {
	streams := w.Threads(sim.NewRNG(planSeed), sim.NewRNG(trialSeed))
	var out []workload.Op
	live := len(streams)
	for live > 0 && len(out) < maxOps {
		live = 0
		for _, st := range streams {
			var op workload.Op
			if st.Next(&op) {
				out = append(out, op)
				live++
			}
		}
	}
	return out
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Objects = 200
	cfg.ObjPages = 3
	cfg.Requests = 2000
	cfg.Threads = 2
	cfg.Sessions = 300
	return cfg
}

func TestServeLayout(t *testing.T) {
	w := New(smallConfig())
	segs := w.Segments()
	if len(segs) != 4 {
		t.Fatalf("want 4 segments, got %d", len(segs))
	}
	if segs[0].Name != "objects" || !segs[0].File {
		t.Fatalf("objects segment must be file-backed: %+v", segs[0])
	}
	for _, s := range segs[1:] {
		if s.File {
			t.Fatalf("%s must be anonymous", s.Name)
		}
	}
	if segs[0].Pages != 200*3 {
		t.Fatalf("objects pages = %d, want 600", segs[0].Pages)
	}
	if segs[2].Name != "sessions" || segs[2].Pages != 300 {
		t.Fatalf("sessions segment wrong: %+v", segs[2])
	}

	// Sessions=0 drops the segment entirely.
	cfg := smallConfig()
	cfg.Sessions = 0
	if got := len(New(cfg).Segments()); got != 3 {
		t.Fatalf("sessionless layout has %d segments, want 3", got)
	}
}

// Every request is a well-formed bracket: ReqStart, accesses (index,
// ObjPages object pages, scratch), ReqEnd; all object reads of one
// request stream one object sequentially.
func TestServeRequestShape(t *testing.T) {
	cfg := smallConfig()
	w := New(cfg)
	ops := drain(w, 1, 2, 1<<20)
	reqs := 0
	for i := 0; i < len(ops); i++ {
		if ops[i].Kind == workload.OpReqEnd {
			reqs++
		}
	}
	if reqs != cfg.Requests {
		t.Fatalf("completed requests = %d, want %d", reqs, cfg.Requests)
	}
}

// Diurnal/burst modulation shows up as non-constant think times.
func TestServeThinkTimeVaries(t *testing.T) {
	w := New(smallConfig())
	ops := drain(w, 1, 2, 1<<20)
	seen := map[sim.Duration]bool{}
	for _, op := range ops {
		if op.Kind == workload.OpCompute {
			seen[op.CPU] = true
		}
	}
	if len(seen) < 10 {
		t.Fatalf("think times nearly constant (%d distinct values); diurnal/jitter modulation missing", len(seen))
	}
}

// FuzzServeWorkload asserts the two workload-contract properties over
// random seeds and shapes: (1) the same seed pair reproduces the request
// stream byte for byte; (2) every emitted access — across phase-shift
// boundaries and flash-crowd windows — targets a mapped segment page,
// i.e. object rotation never yields an out-of-range id.
func FuzzServeWorkload(f *testing.F) {
	f.Add(uint64(1), uint64(2), 100, 3, 2)
	f.Add(uint64(42), uint64(42), 7, 1, 5)
	f.Add(uint64(0), uint64(0), 64, 4, 1)
	f.Fuzz(func(t *testing.T, planSeed, trialSeed uint64, objects, phases, bursts int) {
		if objects <= 0 || objects > 2000 {
			t.Skip()
		}
		if phases < 0 || phases > 8 || bursts < 0 || bursts > 8 {
			t.Skip()
		}
		cfg := DefaultConfig()
		cfg.Objects = objects
		cfg.ObjPages = 2
		cfg.Requests = 600
		cfg.Threads = 3
		cfg.Phases = phases
		cfg.BurstCount = bursts
		w := New(cfg)

		a := drain(w, planSeed, trialSeed, 1<<20)
		b := drain(New(cfg), planSeed, trialSeed, 1<<20)
		if len(a) != len(b) {
			t.Fatalf("same seeds, different stream lengths: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("op %d diverges: %+v vs %+v", i, a[i], b[i])
			}
		}

		segs := w.Segments()
		for i, op := range a {
			if op.Kind != workload.OpAccess {
				continue
			}
			ok := false
			for _, s := range segs {
				if s.Contains(op.VPN) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("op %d accesses vpn %d outside every segment", i, op.VPN)
			}
		}
	})
}

// TestTrialsShareOneKeyGenerator calls Threads from concurrent
// trials, as the experiment runner does: every stream of every trial
// draws from the one generator the workload builds on first use.
func TestTrialsShareOneKeyGenerator(t *testing.T) {
	w := New(smallConfig())
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
	if first.zipf == nil || first.sessZipf == nil {
		t.Fatal("no generator built")
	}
	for i, streams := range trials {
		for tid, s := range streams {
			if st := s.(*stream); st.zipf != first.zipf || st.sessZipf != first.sessZipf {
				t.Fatalf("trial %d thread %d has a generator of its own", i, tid)
			}
		}
	}
}
