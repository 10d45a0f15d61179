package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/policy/simple"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload/pagerank"
	"mglrusim/internal/workload/tpch"
	"mglrusim/internal/workload/ycsb"
)

// TestPageTableFieldFrozen pins the encodings of the vestigial PageTable
// field: cache keys (%+v) and checkpoint envelopes (JSON) of every stored
// series contain them, so changing either would orphan existing stores.
func TestPageTableFieldFrozen(t *testing.T) {
	sys := DefaultSystemConfig()
	if key := fmt.Sprintf("%+v", sys); !strings.Contains(key, " PageTable:auto ") {
		t.Errorf("%%+v encoding lost PageTable:auto: %s", key)
	}
	js, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"PageTable":0,`) {
		t.Errorf("JSON encoding lost \"PageTable\":0: %s", js)
	}
}

func clockFactory() policy.Policy { return clock.New(clock.DefaultConfig()) }
func mglruFactory() policy.Policy { return mglru.New(mglru.Default()) }

// tinyTPCH keeps core tests fast.
func tinyTPCH() *tpch.TPCH {
	cfg := tpch.DefaultConfig()
	cfg.LineitemPages = 500
	cfg.OrdersPages = 120
	cfg.CustomerPages = 40
	cfg.HashPages = 150
	cfg.InputPages = 32
	cfg.Queries = 2
	return tpch.New(cfg)
}

func tinyYCSB(mix ycsb.Mix) *ycsb.YCSB {
	cfg := ycsb.DefaultConfig(mix)
	cfg.Items = 2000
	cfg.Requests = 8000
	return ycsb.New(cfg)
}

func fastSys() SystemConfig {
	sys := DefaultSystemConfig()
	// Faster device so tests complete quickly.
	sys.SSD.ReadLatency = 500 * sim.Microsecond
	sys.SSD.WriteLatency = 500 * sim.Microsecond
	return sys
}

func TestRunTrialBasics(t *testing.T) {
	m, err := RunTrial(tinyTPCH(), clockFactory, fastSys(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	if m.Counters.TotalFaults() == 0 {
		t.Fatal("no faults at 50% capacity")
	}
	if m.AppCPU <= 0 {
		t.Fatal("no app CPU accounted")
	}
	if m.FootprintPages == 0 || m.CapacityPages >= m.FootprintPages {
		t.Fatalf("geometry wrong: %d/%d", m.CapacityPages, m.FootprintPages)
	}
}

func TestRunTrialDeterministicPerSeed(t *testing.T) {
	a, err := RunTrial(tinyTPCH(), mglruFactory, fastSys(), 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(tinyTPCH(), mglruFactory, fastSys(), 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Counters != b.Counters {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Runtime, a.Counters, b.Runtime, b.Counters)
	}
}

func TestSystemSeedChangesOutcome(t *testing.T) {
	a, _ := RunTrial(tinyTPCH(), mglruFactory, fastSys(), 5, 1)
	b, _ := RunTrial(tinyTPCH(), mglruFactory, fastSys(), 5, 2)
	if a.Runtime == b.Runtime && a.Counters == b.Counters {
		t.Fatal("system seed has no effect")
	}
}

func TestHigherCapacityFewerFaults(t *testing.T) {
	sys := fastSys()
	sys.Ratio = 0.5
	lo, err := RunTrial(tinyTPCH(), clockFactory, sys, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys.Ratio = 0.9
	hi, err := RunTrial(tinyTPCH(), clockFactory, sys, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Counters.TotalFaults() >= lo.Counters.TotalFaults() {
		t.Fatalf("faults did not drop with capacity: %d -> %d",
			lo.Counters.TotalFaults(), hi.Counters.TotalFaults())
	}
	if hi.Runtime >= lo.Runtime {
		t.Fatalf("runtime did not drop with capacity: %v -> %v", lo.Runtime, hi.Runtime)
	}
}

func TestZRAMFasterThanSSD(t *testing.T) {
	ssdSys := DefaultSystemConfig() // real 7.5ms SSD
	ssd, err := RunTrial(tinyTPCH(), mglruFactory, ssdSys, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	zramSys := DefaultSystemConfig()
	zramSys.Swap = SwapZRAM
	zr, err := RunTrial(tinyTPCH(), mglruFactory, zramSys, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if zr.Runtime >= ssd.Runtime {
		t.Fatalf("zram (%v) not faster than ssd (%v)", zr.Runtime, ssd.Runtime)
	}
	if zr.Device.LifetimeCompressRatio <= 1 {
		t.Fatalf("compress ratio = %v, want > 1", zr.Device.LifetimeCompressRatio)
	}
}

func TestYCSBRecordsLatencies(t *testing.T) {
	m, err := RunTrial(tinyYCSB(ycsb.MixA), clockFactory, fastSys(), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReadLat.Count() == 0 || m.WriteLat.Count() == 0 {
		t.Fatalf("latencies not recorded: r=%d w=%d", m.ReadLat.Count(), m.WriteLat.Count())
	}
	total := m.ReadLat.Count() + m.WriteLat.Count()
	if total != 8000 {
		t.Fatalf("recorded %d requests, want 8000", total)
	}
	if m.ReadLat.Percentile(99) < m.ReadLat.Percentile(50) {
		t.Fatal("tail ordering violated")
	}
}

func TestYCSBMixCNoWriteLatencies(t *testing.T) {
	m, err := RunTrial(tinyYCSB(ycsb.MixC), clockFactory, fastSys(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.WriteLat.Count() != 0 {
		t.Fatalf("mix C recorded %d write requests", m.WriteLat.Count())
	}
}

func TestPageRankRuns(t *testing.T) {
	cfg := pagerank.DefaultConfig()
	cfg.Graph.Vertices = 2048
	cfg.Iterations = 2
	cfg.Threads = 4
	m, err := RunTrial(pagerank.New(cfg), mglruFactory, fastSys(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.TotalFaults() == 0 {
		t.Fatal("no faults")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	sys := fastSys()
	sys.Ratio = 0
	if _, err := RunTrial(tinyTPCH(), clockFactory, sys, 1, 1); err == nil {
		t.Fatal("zero ratio accepted")
	}
	sys = fastSys()
	sys.CPUs = 0
	if _, err := RunTrial(tinyTPCH(), clockFactory, sys, 1, 1); err == nil {
		t.Fatal("zero CPUs accepted")
	}
}

func TestAllPolicyVariantsComplete(t *testing.T) {
	factories := []PolicyFactory{
		clockFactory,
		mglruFactory,
		func() policy.Policy { return mglru.New(mglru.Gen14()) },
		func() policy.Policy { return mglru.New(mglru.ScanAll()) },
		func() policy.Policy { return mglru.New(mglru.ScanNone()) },
		func() policy.Policy { return mglru.New(mglru.ScanRand(0.5)) },
	}
	w := tinyTPCH()
	for i, mk := range factories {
		if _, err := RunTrial(w, mk, fastSys(), 1, uint64(i)+10); err != nil {
			t.Fatalf("factory %d failed: %v", i, err)
		}
	}
}

func TestMGLRUBeatsFIFOOnSkewedReuse(t *testing.T) {
	// Quality check: on a zipfian-reuse workload, paying for accessed-bit
	// tracking must beat blind FIFO on fault count.
	w := tinyYCSB(ycsb.MixC)
	sys := fastSys()
	fifoM, err := RunTrial(w, func() policy.Policy { return simple.NewFIFO() }, sys, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgM, err := RunTrial(w, mglruFactory, sys, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mgM.Counters.TotalFaults() >= fifoM.Counters.TotalFaults() {
		t.Fatalf("mglru faults %d >= fifo faults %d on zipfian reuse",
			mgM.Counters.TotalFaults(), fifoM.Counters.TotalFaults())
	}
}

func TestScanAllRecordsLockContention(t *testing.T) {
	pol := mglru.New(mglru.ScanAll())
	_, err := RunTrial(tinyTPCH(), func() policy.Policy { return pol }, fastSys(), 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	acq, _, _ := pol.LockStats()
	if acq == 0 {
		t.Fatal("no lock activity recorded")
	}
}
