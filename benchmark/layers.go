package main

import "strings"

// layers are the simulator's modules, in report order. "benchmark" is
// this program's own code (span recording and the policy probe, i.e. the
// tracing overhead); "runtime" takes samples whose stack holds no frame of
// the module at all (scheduler, GC workers, idle sweeping).
var layers = []string{
	"sim", "core", "vmm", "policy", "pagetable", "rmap", "mem", "swap", "zram",
	"fault", "pagecache", "workload", "stats", "experiments", "checkpoint",
	"shard", "server", "benchmark", "runtime",
}

// packageLayer maps each package directory under internal/ (its first
// path element) to a layer. Helpers are folded into the layer that calls
// them: pidctl and bloom serve MG-LRU, graph and kvstore build workloads,
// telemetry is the stats plane. check, tiering, trace and bench are never
// reached by a benchmark workload; they are mapped only so the table is
// total (a test walks internal/ to enforce that).
var packageLayer = map[string]string{
	"sim":         "sim",
	"core":        "core",
	"vmm":         "vmm",
	"check":       "vmm",
	"tiering":     "vmm",
	"policy":      "policy",
	"pidctl":      "policy",
	"bloom":       "policy",
	"pagetable":   "pagetable",
	"rmap":        "rmap",
	"mem":         "mem",
	"swap":        "swap",
	"zram":        "zram",
	"fault":       "fault",
	"pagecache":   "pagecache",
	"workload":    "workload",
	"graph":       "workload",
	"kvstore":     "workload",
	"stats":       "stats",
	"telemetry":   "stats",
	"trace":       "stats",
	"experiments": "experiments",
	"bench":       "experiments",
	"checkpoint":  "checkpoint",
	"shard":       "shard",
	"server":      "server",
}

// frameLayer maps one symbolized function name to its layer; ok is false
// for functions outside the module (standard library, runtime).
func frameLayer(fn string) (layer string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "mglrusim/benchmark."):
		return "benchmark", true
	case strings.HasPrefix(fn, "mglrusim/internal/"):
		pkg := fn[len("mglrusim/internal/"):]
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		layer, ok = packageLayer[pkg]
		return layer, ok
	case strings.HasPrefix(fn, "mglrusim."):
		return "core", true // the public facade over core
	}
	return "", false
}

// stackLayer credits a stack (leaf first) to its leaf-most frame inside
// the module, so standard-library work is charged to the layer that asked
// for it.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if layer, ok := frameLayer(fn); ok {
			return layer
		}
	}
	return "runtime"
}

// cpuReport is what the layer report extracts from one CPU profile.
type cpuReport struct {
	// share is each layer's fraction of sampled CPU time.
	share map[string]float64
	// labeled sums sampled CPU seconds per value of the "span" goroutine
	// label the policy probe sets.
	labeled map[string]float64
	samples int
}

func layerReport(p *profile) cpuReport {
	rep := cpuReport{share: map[string]float64{}, labeled: map[string]float64{}}
	vi := p.valueIndex("cpu")
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		ns := s.values[vi]
		byLayer[stackLayer(p.frames(s))] += ns
		if span := s.labels["span"]; span != "" {
			rep.labeled[span] += float64(ns) / 1e9
		}
		total += ns
		rep.samples++
	}
	for _, l := range layers {
		rep.share[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return rep
}
