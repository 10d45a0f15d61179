// Public-API tests: the facade must be sufficient to run trials, build
// every policy variant and workload, and implement a custom policy.
package mglrusim_test

import (
	"testing"

	"mglrusim"
)

// tinySys speeds API tests up with a faster device.
func tinySys() mglrusim.SystemConfig {
	sys := mglrusim.DefaultSystemConfig()
	sys.SSD.ReadLatency = 300 * mglrusim.Microsecond
	sys.SSD.WriteLatency = 300 * mglrusim.Microsecond
	return sys
}

func tinyTPCH() mglrusim.Workload {
	cfg := mglrusim.TPCHDefaults()
	cfg.LineitemPages = 400
	cfg.OrdersPages = 100
	cfg.CustomerPages = 30
	cfg.HashPages = 120
	cfg.InputPages = 32
	cfg.Queries = 2
	return mglrusim.NewTPCH(cfg)
}

func TestPublicRunTrial(t *testing.T) {
	m, err := mglrusim.RunTrial(tinyTPCH(), mglrusim.NewMGLRU, tinySys(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runtime <= 0 || m.Counters.TotalFaults() == 0 {
		t.Fatalf("implausible metrics: %+v", m.Counters)
	}
}

func TestPublicPolicyVariants(t *testing.T) {
	for _, cfg := range []mglrusim.MGLRUConfig{
		mglrusim.MGLRUDefault(), mglrusim.MGLRUGen14(),
		mglrusim.MGLRUScanAll(), mglrusim.MGLRUScanNone(), mglrusim.MGLRUScanRand(0.5),
	} {
		p := mglrusim.NewMGLRUWith(cfg)
		if p.Name() == "" {
			t.Fatal("unnamed policy")
		}
	}
	if mglrusim.NewClock().Name() != "clock" {
		t.Fatal("clock name")
	}
}

func TestPublicPolicyByName(t *testing.T) {
	listed := map[string]bool{}
	for _, name := range mglrusim.PolicyNames() {
		listed[name] = true
		mk := mglrusim.PolicyByName(name)
		if mk() == nil {
			t.Fatalf("factory for %s returned nil", name)
		}
	}
	// PolicyNames must list everything PolicyByName accepts, baselines
	// and ablations included.
	for _, name := range []string{"fifo", "random", "mglru-nopid"} {
		if !listed[name] {
			t.Errorf("PolicyNames() omits %q, which PolicyByName accepts", name)
		}
	}
}

func TestPublicWorkloads(t *testing.T) {
	ws := []mglrusim.Workload{
		tinyTPCH(),
		mglrusim.NewPageRank(func() mglrusim.PageRankConfig {
			c := mglrusim.PageRankDefaults()
			c.Graph.Vertices = 2048
			c.Iterations = 2
			return c
		}()),
		mglrusim.NewYCSB(func() mglrusim.YCSBConfig {
			c := mglrusim.YCSBDefaults(mglrusim.YCSBB)
			c.Items = 1500
			c.Requests = 5000
			return c
		}()),
	}
	for _, w := range ws {
		if w.FootprintPages() <= 0 {
			t.Fatalf("%s: no footprint", w.Name())
		}
		if _, err := mglrusim.RunTrial(w, mglrusim.NewClock, tinySys(), 1, 3); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
}

func TestPublicSystemAt(t *testing.T) {
	sys := mglrusim.SystemAt(0.75, mglrusim.SwapZRAM)
	if sys.Ratio != 0.75 || sys.Swap != mglrusim.SwapZRAM {
		t.Fatalf("SystemAt wrong: %+v", sys)
	}
}

func TestPublicStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if mglrusim.Summarize(xs).Median != 3 {
		t.Fatal("Summarize")
	}
	if mglrusim.Percentile(xs, 100) != 5 {
		t.Fatal("Percentile")
	}
	if r := mglrusim.LinearFit(xs, xs); r.R2 < 0.999 {
		t.Fatal("LinearFit")
	}
	if p := mglrusim.WelchTTest(xs, xs); p.P < 0.99 {
		t.Fatal("WelchTTest identical samples")
	}
}

// minimalPolicy checks the Policy interface is implementable from outside
// (compile-time + runtime): random eviction.
type minimalPolicy struct {
	mglrusim.NoAging
	k     mglrusim.Kernel
	list  *mglrusim.List
	stats mglrusim.PolicyStats
}

func (p *minimalPolicy) Name() string                { return "random" }
func (p *minimalPolicy) Attach(k mglrusim.Kernel)    { p.k = k; p.list = mglrusim.NewList(k.Mem(), 0) }
func (p *minimalPolicy) Stats() mglrusim.PolicyStats { return p.stats }

func (p *minimalPolicy) PageIn(v *mglrusim.Env, f mglrusim.FrameID, sh *mglrusim.Shadow) {
	p.list.PushHead(f)
}

func (p *minimalPolicy) Reclaim(v *mglrusim.Env, target int) int {
	n := 0
	for n < target {
		f := p.list.PopTail()
		if f == mglrusim.NilFrame {
			break
		}
		p.stats.Evicted++
		p.k.EvictPage(v, f, mglrusim.Shadow{EvictedAt: v.Now()})
		n++
	}
	return n
}

func TestPublicCustomPolicy(t *testing.T) {
	m, err := mglrusim.RunTrial(tinyTPCH(),
		func() mglrusim.Policy { return &minimalPolicy{} }, tinySys(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy.Evicted == 0 {
		t.Fatal("custom policy never evicted")
	}
}

func TestPublicFigureRegistry(t *testing.T) {
	if len(mglrusim.Figures) != 12 || len(mglrusim.FigureIDs()) != 12 {
		t.Fatal("figure registry incomplete")
	}
}
