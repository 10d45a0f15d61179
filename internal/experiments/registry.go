// Package experiments is the characterization harness: it defines the
// policy and workload matrices the paper sweeps, runs multi-trial series
// (25 executions per configuration, fresh system per trial), and
// regenerates every figure of the evaluation as a typed result with a
// plain-text rendering.
package experiments

import (
	"fmt"

	"mglrusim/internal/core"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/policy/simple"
	"mglrusim/internal/workload"
	"mglrusim/internal/workload/pagerank"
	"mglrusim/internal/workload/serve"
	"mglrusim/internal/workload/tpch"
	"mglrusim/internal/workload/ycsb"
)

// PolicySpec names a replacement-policy configuration.
type PolicySpec struct {
	Name string
	Make core.PolicyFactory
}

// Canonical policy names, matching the paper's labels, plus the
// scan-free baselines (not part of the paper's matrix).
const (
	PolClock    = "clock"
	PolMGLRU    = "mglru"
	PolGen14    = "gen14"
	PolScanAll  = "scan-all"
	PolScanNone = "scan-none"
	PolScanRand = "scan-rand"
	PolFIFO     = "fifo"
	PolRandom   = "random"
	// PolMGLRUNoPID is default MG-LRU with PID tier protection switched
	// off — the ablation arm of the ext2 file-vs-anon figures.
	PolMGLRUNoPID = "mglru-nopid"
)

// Policies returns specs for the requested policy names.
func Policies(names ...string) []PolicySpec {
	out := make([]PolicySpec, 0, len(names))
	for _, n := range names {
		out = append(out, PolicyByName(n))
	}
	return out
}

// PolicyByName resolves one policy spec; it panics on unknown names.
func PolicyByName(name string) PolicySpec {
	switch name {
	case PolClock:
		return PolicySpec{Name: name, Make: func() policy.Policy { return clock.New(clock.DefaultConfig()) }}
	case PolMGLRU:
		return PolicySpec{Name: name, Make: func() policy.Policy { return mglru.New(mglru.Default()) }}
	case PolGen14:
		return PolicySpec{Name: name, Make: func() policy.Policy { return mglru.New(mglru.Gen14()) }}
	case PolScanAll:
		return PolicySpec{Name: name, Make: func() policy.Policy { return mglru.New(mglru.ScanAll()) }}
	case PolScanNone:
		return PolicySpec{Name: name, Make: func() policy.Policy { return mglru.New(mglru.ScanNone()) }}
	case PolScanRand:
		return PolicySpec{Name: name, Make: func() policy.Policy { return mglru.New(mglru.ScanRand(0.5)) }}
	case PolFIFO:
		return PolicySpec{Name: name, Make: func() policy.Policy { return simple.NewFIFO() }}
	case PolRandom:
		return PolicySpec{Name: name, Make: func() policy.Policy { return simple.NewRandom() }}
	case PolMGLRUNoPID:
		return PolicySpec{Name: name, Make: func() policy.Policy {
			cfg := mglru.Default()
			cfg.VariantName = PolMGLRUNoPID
			cfg.TierProtection = false
			return mglru.New(cfg)
		}}
	}
	panic(fmt.Sprintf("experiments: unknown policy %q", name))
}

// PolicyNames lists every registered policy name, in registry order —
// the validation vocabulary API layers resolve client-supplied names
// against (PolicyByName panics on unknown names; check membership here
// first).
func PolicyNames() []string {
	return []string{PolClock, PolMGLRU, PolGen14, PolScanAll, PolScanNone, PolScanRand, PolFIFO, PolRandom, PolMGLRUNoPID}
}

// BaselinePair is the Clock-vs-MGLRU comparison of §V-A.
func BaselinePair() []PolicySpec { return Policies(PolClock, PolMGLRU) }

// AllPolicies is the full §V-B matrix.
func AllPolicies() []PolicySpec {
	return Policies(PolClock, PolMGLRU, PolGen14, PolScanAll, PolScanNone, PolScanRand)
}

// MGLRUVariants is the §V-B parameter study (normalized to default MG-LRU).
func MGLRUVariants() []PolicySpec {
	return Policies(PolMGLRU, PolGen14, PolScanAll, PolScanNone, PolScanRand)
}

// WorkloadSpec names a workload configuration. Make must return a fresh
// (or reusable, stateless-across-trials) workload.
type WorkloadSpec struct {
	Name string
	// Latency reports whether the workload's headline metric is request
	// latency (YCSB) rather than runtime.
	Latency bool
	Make    func() workload.Workload
}

// Workloads returns the paper's five workloads, scaled by scale (1.0 =
// the calibrated default footprint; larger values grow tables, graphs,
// item counts, and request volumes proportionally), at the default
// region fanout.
func Workloads(scale float64) []WorkloadSpec { return WorkloadsAt(scale, 0) }

// WorkloadsAt is Workloads with an explicit page-table region fanout —
// the single knob every workload config's RegionPTEs derives from
// (0 = workload.DefaultRegionPTEs). Full-scale runs pass the kernel's
// 512-PTE PMD fanout here.
func WorkloadsAt(scale float64, regionPTEs int) []WorkloadSpec {
	sc := scaler(scale)
	ws := []WorkloadSpec{
		{Name: "tpch", Make: func() workload.Workload {
			cfg := tpch.DefaultConfig()
			cfg.LineitemPages = sc(cfg.LineitemPages)
			cfg.OrdersPages = sc(cfg.OrdersPages)
			cfg.CustomerPages = sc(cfg.CustomerPages)
			cfg.HashPages = sc(cfg.HashPages)
			cfg.InputPages = sc(cfg.InputPages)
			if regionPTEs > 0 {
				cfg.RegionPTEs = regionPTEs
			}
			return tpch.New(cfg)
		}},
		{Name: "pagerank", Make: func() workload.Workload {
			cfg := pagerank.DefaultConfig()
			cfg.Graph.Vertices = sc(cfg.Graph.Vertices)
			if regionPTEs > 0 {
				cfg.RegionPTEs = regionPTEs
			}
			return pagerank.New(cfg)
		}},
	}
	for _, mix := range []ycsb.Mix{ycsb.MixA, ycsb.MixB, ycsb.MixC} {
		ws = append(ws, WorkloadSpec{Name: mix.String(), Latency: true, Make: func() workload.Workload {
			cfg := ycsb.DefaultConfig(mix)
			cfg.Items = sc(cfg.Items)
			cfg.Requests = sc(cfg.Requests)
			if regionPTEs > 0 {
				cfg.RegionPTEs = regionPTEs
			}
			return ycsb.New(cfg)
		}})
	}
	return ws
}

// scaler returns the function that scales a workload size by scale
// (non-positive means 1), never below one.
func scaler(scale float64) func(int) int {
	if scale <= 0 {
		scale = 1
	}
	return func(n int) int { return max(int(float64(n)*scale), 1) }
}

// ExtensionWorkloadsAt returns workloads added by extension figure
// families, beyond the paper's five. They resolve by name and sweep like
// any other workload but never enter WorkloadsAt, so the paper-figure
// matrix is unchanged.
func ExtensionWorkloadsAt(scale float64, regionPTEs int) []WorkloadSpec {
	sc := scaler(scale)
	return []WorkloadSpec{
		{Name: "serve", Latency: true, Make: func() workload.Workload {
			cfg := serve.DefaultConfig()
			cfg.Objects = sc(cfg.Objects)
			cfg.Requests = sc(cfg.Requests)
			cfg.Sessions = sc(cfg.Sessions)
			if regionPTEs > 0 {
				cfg.RegionPTEs = regionPTEs
			}
			return serve.New(cfg)
		}},
	}
}

// WorkloadNames lists every registered workload name — the paper's five
// then the extension workloads, in registry order — the validation
// vocabulary for client-supplied names (WorkloadByNameAt panics on
// unknown names; check membership here first). Enumerating the registry
// at scale 1 constructs nothing: WorkloadSpec.Make is lazy.
func WorkloadNames() []string {
	ws := WorkloadsAt(1, 0)
	ws = append(ws, ExtensionWorkloadsAt(1, 0)...)
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// WorkloadByName resolves a single workload spec at the given scale and
// the default region fanout.
func WorkloadByName(name string, scale float64) WorkloadSpec {
	return WorkloadByNameAt(name, scale, 0)
}

// WorkloadByNameAt resolves a single workload spec at the given scale
// and region fanout.
func WorkloadByNameAt(name string, scale float64, regionPTEs int) WorkloadSpec {
	for _, w := range WorkloadsAt(scale, regionPTEs) {
		if w.Name == name {
			return w
		}
	}
	for _, w := range ExtensionWorkloadsAt(scale, regionPTEs) {
		if w.Name == name {
			return w
		}
	}
	panic(fmt.Sprintf("experiments: unknown workload %q", name))
}

// batchWorkloads returns the non-latency (runtime-metric) workloads the
// joint-distribution figures use.
func batchWorkloads(scale float64, regionPTEs int) []WorkloadSpec {
	all := WorkloadsAt(scale, regionPTEs)
	return []WorkloadSpec{all[0], all[1]} // tpch, pagerank
}

// ycsbWorkloads returns the latency-metric workloads.
func ycsbWorkloads(scale float64, regionPTEs int) []WorkloadSpec {
	all := WorkloadsAt(scale, regionPTEs)
	return all[2:]
}
