package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
)

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// recordProfile profiles a busy loop that runs under the probe's policy
// label.
func recordProfile(t *testing.T) *profile {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "policy"), func(context.Context) {
		spinForProfile(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	p, err := decodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecodeProfile(t *testing.T) {
	p := recordProfile(t)
	vi := p.valueIndex("cpu")
	if vi < 0 {
		t.Fatalf("no cpu sample type in %v", p.sampleTypes)
	}
	var spin, labeled int
	for _, s := range p.samples {
		frames := p.frames(s)
		if len(frames) == 0 || len(s.values) != len(p.sampleTypes) {
			t.Fatalf("malformed sample: frames %v values %v", frames, s.values)
		}
		if strings.HasSuffix(frames[0], ".spinForProfile") {
			spin++
			if got := stackLayer(frames); got != "benchmark" {
				t.Errorf("spin frame %q maps to layer %q, want benchmark", frames[0], got)
			}
			if s.labels["span"] == "policy" {
				labeled++
			}
		}
	}
	if spin == 0 {
		t.Fatalf("no sample has spinForProfile as its leaf among %d samples", len(p.samples))
	}
	if labeled != spin {
		t.Errorf("%d of %d spin samples carry the span label", labeled, spin)
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	rep := layerReport(recordProfile(t))
	total := 0.0
	for _, l := range layers {
		total += rep.share[l]
	}
	if math.Abs(total-1) > 0.01 {
		t.Fatalf("cpu shares sum to %v over %d samples: %v", total, rep.samples, rep.share)
	}
	if rep.labeled["policy"] <= 0 {
		t.Errorf("no CPU credited to the policy label: %v", rep.labeled)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"mglrusim/internal/zram.AppendCompress":                         "zram",
		"mglrusim/internal/policy/mglru.(*MGLRU).Reclaim":               "policy",
		"mglrusim/internal/pidctl.(*TierGain).Update":                   "policy",
		"mglrusim/internal/sim.(*Proc).handoff":                         "sim",
		"mglrusim/internal/mem.(*Arena[go.shape.uint32]).At":            "mem",
		"mglrusim/internal/workload/pagerank.(*PageRank).Threads.func1": "workload",
		"mglrusim/internal/graph.Generate":                              "workload",
		"mglrusim/internal/telemetry.(*Tracer).Emit":                    "stats",
		"mglrusim/internal/experiments.(*Runner).runSeriesCheckpointed": "experiments",
		"main.(*batch).pass":                                            "benchmark",
		"mglrusim/benchmark.(*batch).pass":                              "benchmark",
	} {
		if got, ok := frameLayer(fn); !ok || got != want {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if got := stackLayer([]string{"runtime.mallocgc", "encoding/json.Unmarshal", "mglrusim/internal/checkpoint.(*Store).Get"}); got != "checkpoint" {
		t.Errorf("standard-library work is credited to %q, want its caller's layer checkpoint", got)
	}
	if got := stackLayer([]string{"runtime.gcBgMarkWorker"}); got != "runtime" {
		t.Errorf("a stack without module frames is credited to %q, want runtime", got)
	}
}

// TestLayerMapCoversEveryPackage keeps the package→layer table total: a
// new package under internal/ must be given a layer.
func TestLayerMapCoversEveryPackage(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := packageLayer[e.Name()]; e.IsDir() && !ok {
			t.Errorf("package internal/%s has no layer", e.Name())
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range packageLayer {
		if !known[l] {
			t.Errorf("package %s maps to unknown layer %q", pkg, l)
		}
	}
}

// TestProbeIsTransparent runs one trial with the bare policy and one with
// the probe installed: every simulated metric must be identical.
func TestProbeIsTransparent(t *testing.T) {
	spec := experiments.PolicyByName(experiments.PolMGLRU)
	w := experiments.WorkloadByName("tpch", 0.05).Make()
	sys := experiments.SystemAt(0.5, core.SwapZRAM)
	bare, err := core.RunTrial(w, spec.Make, sys, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	pb := &probe{}
	probed, err := core.RunTrial(w, pb.wrap(spec, nil).Make, sys, 11, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pb.pageins.Load() == 0 || pb.reclaims.Load() == 0 {
		t.Fatalf("probe saw no calls: %d page-ins, %d reclaims", pb.pageins.Load(), pb.reclaims.Load())
	}
	type view struct {
		Runtime, AppCPU, Counters, Policy, Device, Footprint, Capacity any
		Read, Write, Fault                                             []int64
	}
	of := func(m core.Metrics) view {
		return view{m.Runtime, m.AppCPU, m.Counters, m.Policy, m.Device, m.FootprintPages, m.CapacityPages,
			m.ReadLat.Samples(), m.WriteLat.Samples(), m.FaultLat.Samples()}
	}
	if !reflect.DeepEqual(of(bare), of(probed)) {
		t.Fatalf("probe changed the trial:\nbare   %+v\nprobed %+v", of(bare), of(probed))
	}
}

// TestPartwiseMedian checks that a slow spell covering parts of a single
// sample leaves the result alone, and that scaling divides out the
// reference handoff.
func TestPartwiseMedian(t *testing.T) {
	ms := time.Millisecond
	p := func(wall time.Duration) part { return part{wall: wall, ref: refNominal} }
	samples := [][]part{
		{p(10 * ms), p(20 * ms)},
		{p(90 * ms), p(20 * ms)}, // slow first part
		{p(10 * ms), p(80 * ms)}, // slow second part
	}
	if got := partwiseMedian(samples, part.raw); got != 30*ms {
		t.Errorf("raw partwise median %v, want 30ms", got)
	}
	slowHost := [][]part{{{wall: 20 * ms, ref: 2 * refNominal}}}
	if got := partwiseMedian(slowHost, part.scaled); got != 10*ms {
		t.Errorf("scaled time on a host with a twice-slower reference %v, want 10ms", got)
	}
	if d := refHandoff(); d <= 0 {
		t.Errorf("reference handoff took %v", d)
	}
}

type metricSpec struct{ Name, Unit string }

func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestWorkloadsAtToySize runs every workload untraced and traced at a toy
// size with a non-default seed. Each run must check clean and emit exactly
// the metrics BENCHMARK.json names, with their units.
func TestWorkloadsAtToySize(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	work := t.TempDir()
	check := func(t *testing.T, name string, trace bool, want []metricSpec) {
		rep, err := run(config{workload: name, seed: 7, seconds: 0.4, trace: trace,
			work: work, root: "..", toy: true})
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Result
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.Meta.Failures)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s = %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
			}
		}
		if trace {
			total := 0.0
			for _, l := range layers {
				total += res.Metrics[l+".cpu_share"].Value
			}
			if math.Abs(total-1) > 0.01 {
				t.Errorf("cpu shares sum to %v", total)
			}
		}
	}
	t.Run("untraced", func(t *testing.T) {
		for _, def := range workloadDefs {
			t.Run(def.name, func(t *testing.T) {
				t.Parallel()
				check(t, def.name, false, endToEnd)
			})
		}
	})
	// Traced runs stay sequential: only one CPU profile can run at a time.
	t.Run("traced", func(t *testing.T) {
		for _, def := range workloadDefs {
			t.Run(def.name, func(t *testing.T) { check(t, def.name, true, perLayer) })
		}
	})
}
