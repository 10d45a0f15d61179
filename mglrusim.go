// Package mglrusim is a simulation framework for characterizing operating
// system page replacement policies, reproducing "Characterizing Emerging
// Page Replacement Policies for Memory-Intensive Applications" (Wu,
// Isaacman, Bhattacharjee; IISWC 2024).
//
// The package simulates a complete memory-management stack — page tables
// with hardware-set accessed bits, a reverse map, physical frames with
// watermark-driven reclaim, SSD and compressed-RAM (ZRAM) swap devices
// with readahead, and background kswapd/aging daemons — on a deterministic
// discrete-event engine. Two replacement policies are provided: the
// classic Clock-LRU (active/inactive lists) and the Multi-Generational
// LRU in all the variants the paper studies (default, Gen-14, Scan-All,
// Scan-None, Scan-Rand). Three workload families drive the system: TPC-H
// style data warehousing, GAP-style PageRank, and YCSB A/B/C over a
// memcached-like KV cache.
//
// # Quick start
//
//	w := mglrusim.NewTPCH(mglrusim.TPCHDefaults())
//	sys := mglrusim.DefaultSystemConfig() // 12 CPUs, 50% ratio, SSD swap
//	m, err := mglrusim.RunTrial(w, mglrusim.NewMGLRU, sys, 42, 1)
//	if err != nil { ... }
//	fmt.Println(m.RuntimeSeconds(), m.Counters.TotalFaults())
//
// For multi-trial series and the paper's figures, use Experiments:
//
//	r := mglrusim.NewRunner(mglrusim.DefaultExperimentOptions())
//	res, err := mglrusim.Figures["fig1"](r)
//	fmt.Println(res.Render())
//
// Custom replacement policies implement the Policy interface and can be
// benchmarked against the built-ins with the same harness; see
// examples/custompolicy.
package mglrusim

import (
	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/fault"
	"mglrusim/internal/mem"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/rmap"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
	"mglrusim/internal/vmm"
	"mglrusim/internal/workload"
	"mglrusim/internal/workload/pagerank"
	"mglrusim/internal/workload/serve"
	"mglrusim/internal/workload/tpch"
	"mglrusim/internal/workload/ycsb"
	"mglrusim/internal/zram"
)

// --- simulation core ---

// Time is a virtual-time instant in nanoseconds.
type Time = sim.Time

// Duration is a virtual-time span in nanoseconds.
type Duration = sim.Duration

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// RNG is the deterministic random source used throughout the simulator.
type RNG = sim.RNG

// NewRNG creates a seeded generator.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// --- system configuration ---

// SystemConfig describes the simulated machine (CPUs, capacity ratio,
// swap medium, memory-manager tuning).
type SystemConfig = core.SystemConfig

// SwapKind selects the swap medium.
type SwapKind = core.SwapKind

// Swap media.
const (
	SwapSSD  = core.SwapSSD
	SwapZRAM = core.SwapZRAM
)

// DefaultSystemConfig mirrors the paper's testbed: 12 hardware threads,
// 50% memory capacity-to-footprint ratio, SSD swap (~7.5 ms per 4 KB).
func DefaultSystemConfig() SystemConfig { return core.DefaultSystemConfig() }

// SystemAt returns the default system at a given capacity ratio and swap
// medium — the two axes the paper sweeps.
func SystemAt(ratio float64, kind SwapKind) SystemConfig {
	return experiments.SystemAt(ratio, kind)
}

// SSDConfig and ZRAMConfig parameterize the swap devices.
type (
	SSDConfig  = swap.SSDConfig
	ZRAMConfig = swap.ZRAMConfig
)

// VMMConfig tunes the memory manager (fault overheads, reclaim batches,
// aging cadence, readahead window).
type VMMConfig = vmm.Config

// --- policies ---

// Policy is a page replacement policy; implement it to evaluate custom
// algorithms under the same harness as the built-ins.
type Policy = policy.Policy

// Kernel is the memory-manager view a Policy operates through.
type Kernel = policy.Kernel

// Shadow is the information remembered about an evicted page for refault
// classification.
type Shadow = policy.Shadow

// PolicyStats are the counters every policy reports.
type PolicyStats = policy.Stats

// PolicyCosts is the shared accessed-bit scanning cost model.
type PolicyCosts = policy.Costs

// PolicyFactory builds a fresh policy instance for one trial.
type PolicyFactory = core.PolicyFactory

// NoAging provides the Age, AgeStep and NeedsAging of a policy without
// background aging; embed it in a custom policy.
type NoAging = policy.NoAging

// AgeWalk is the cursor of a resumable aging pass (Policy.AgeStep).
type AgeWalk = policy.AgeWalk

// NewClock builds the classic two-list Clock-LRU with kernel-like
// defaults.
func NewClock() Policy { return clock.New(clock.DefaultConfig()) }

// ClockConfig parameterizes Clock-LRU.
type ClockConfig = clock.Config

// NewClockWith builds Clock-LRU from an explicit configuration.
func NewClockWith(cfg ClockConfig) Policy { return clock.New(cfg) }

// MGLRUConfig parameterizes the Multi-Generational LRU.
type MGLRUConfig = mglru.Config

// MGLRU variant configurations, matching the paper's labels.
func MGLRUDefault() MGLRUConfig           { return mglru.Default() }
func MGLRUGen14() MGLRUConfig             { return mglru.Gen14() }
func MGLRUScanAll() MGLRUConfig           { return mglru.ScanAll() }
func MGLRUScanNone() MGLRUConfig          { return mglru.ScanNone() }
func MGLRUScanRand(p float64) MGLRUConfig { return mglru.ScanRand(p) }

// NewMGLRU builds the default (kernel-configuration) MG-LRU.
func NewMGLRU() Policy { return mglru.New(mglru.Default()) }

// NewMGLRUWith builds MG-LRU from an explicit variant configuration.
func NewMGLRUWith(cfg MGLRUConfig) Policy { return mglru.New(cfg) }

// --- workloads ---

// Workload drives the simulated memory system.
type Workload = workload.Workload

// Stream is a lazy per-thread operation stream.
type Stream = workload.Stream

// Op is one workload operation.
type Op = workload.Op

// Operation kinds and request classes for custom workloads.
const (
	OpAccess   = workload.OpAccess
	OpCompute  = workload.OpCompute
	OpBarrier  = workload.OpBarrier
	OpReqStart = workload.OpReqStart
	OpReqEnd   = workload.OpReqEnd
	ReqRead    = workload.ReqRead
	ReqWrite   = workload.ReqWrite
)

// VPN is a virtual page number.
type VPN = pagetable.VPN

// TPCHConfig sizes the TPC-H / Spark-SQL workload model.
type TPCHConfig = tpch.Config

// TPCHDefaults returns the calibrated TPC-H configuration.
func TPCHDefaults() TPCHConfig { return tpch.DefaultConfig() }

// NewTPCH builds the TPC-H workload.
func NewTPCH(cfg TPCHConfig) Workload { return tpch.New(cfg) }

// PageRankConfig sizes the GAP PageRank workload model.
type PageRankConfig = pagerank.Config

// PageRankDefaults returns the calibrated PageRank configuration.
func PageRankDefaults() PageRankConfig { return pagerank.DefaultConfig() }

// NewPageRank builds the PageRank workload (generates its graph).
func NewPageRank(cfg PageRankConfig) Workload { return pagerank.New(cfg) }

// YCSBConfig sizes the YCSB/memcached workload model.
type YCSBConfig = ycsb.Config

// YCSBMix selects workload A, B, or C.
type YCSBMix = ycsb.Mix

// YCSB mixes.
const (
	YCSBA = ycsb.MixA
	YCSBB = ycsb.MixB
	YCSBC = ycsb.MixC
)

// YCSBDefaults returns the calibrated YCSB configuration for a mix.
func YCSBDefaults(mix YCSBMix) YCSBConfig { return ycsb.DefaultConfig(mix) }

// NewYCSB builds a YCSB workload.
func NewYCSB(cfg YCSBConfig) Workload { return ycsb.New(cfg) }

// ServeConfig sizes the serving-fleet workload model (file-backed
// object corpus, long-tailed sessions, diurnal phases, flash crowds).
type ServeConfig = serve.Config

// ServeDefaults returns the calibrated serving-fleet configuration.
func ServeDefaults() ServeConfig { return serve.DefaultConfig() }

// NewServe builds the serving-fleet workload. Its object corpus is a
// file segment: under a system with PageCache enabled those pages fault
// through the page cache instead of swap.
func NewServe(cfg ServeConfig) Workload { return serve.New(cfg) }

// PageCacheConfig tunes the file-backed page-cache mode
// (SystemConfig.PageCache). The zero value disables the mode.
type PageCacheConfig = pagecache.Config

// PageCacheStats are the page-cache counters inside Metrics.
type PageCacheStats = pagecache.Stats

// PageCacheDefaults returns the enabled page-cache profile with
// calibrated defaults (SSD backing, 10% dirty ratio, 100 ms flusher).
func PageCacheDefaults() PageCacheConfig { return pagecache.DefaultConfig() }

// ContentClass describes page compressibility for the ZRAM device.
type ContentClass = zram.ContentClass

// Content classes.
const (
	ClassZeroHeavy  = zram.ClassZeroHeavy
	ClassStructured = zram.ClassStructured
	ClassRandom     = zram.ClassRandom
)

// --- running trials ---

// Metrics is everything measured in one trial.
type Metrics = core.Metrics

// VMMCounters are the fault-path counters inside Metrics.
type VMMCounters = vmm.Counters

// DeviceStats are the swap-device counters inside Metrics.
type DeviceStats = swap.Stats

// LatencyRecorder collects per-request latencies (tail analysis).
type LatencyRecorder = stats.LatencyRecorder

// RunTrial executes one complete characterization trial: fresh system,
// full workload execution, metrics harvest. workloadSeed fixes the
// executed work; systemSeed varies everything else (scheduling, device
// jitter, hashing) the way rebooted-but-distinct runs differ.
func RunTrial(w Workload, mk PolicyFactory, sys SystemConfig, workloadSeed, systemSeed uint64) (Metrics, error) {
	return core.RunTrial(w, mk, sys, workloadSeed, systemSeed)
}

// --- experiment harness ---

// ExperimentOptions configure a harness run (trials per configuration,
// workload scale, seed).
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions mirror the paper's methodology (25 trials).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Runner executes multi-trial series with caching across figures.
type Runner = experiments.Runner

// NewRunner creates a Runner.
func NewRunner(opts ExperimentOptions) *Runner { return experiments.NewRunner(opts) }

// Series is one (workload, policy, system) multi-trial result.
type Series = experiments.Series

// FigureResult is a reproduced figure: typed data plus text rendering.
type FigureResult = experiments.Result

// Figures maps figure IDs ("fig1".."fig12") to reproduction functions.
var Figures = experiments.Figures

// FigureIDs lists the figure IDs in paper order.
func FigureIDs() []string { return experiments.FigureIDs() }

// Extensions maps extension-experiment IDs to their functions: sweeps
// that go beyond the paper's twelve figures ("ext1" is the
// degraded-device sweep). Figures stays exactly the paper's set.
var Extensions = experiments.Extensions

// ExtensionIDs lists the extension experiment IDs.
func ExtensionIDs() []string { return experiments.ExtensionIDs() }

// PolicyNames lists the canonical policy names accepted by PolicyByName.
func PolicyNames() []string { return experiments.PolicyNames() }

// PolicyByName returns the factory for a canonical policy name.
func PolicyByName(name string) PolicyFactory { return experiments.PolicyByName(name).Make }

// --- fault injection & resilience ---

// FaultPlan is a deterministic fault-injection scenario: SSD latency
// storms and device stalls, transient read errors with bounded retry,
// zram pool mem-limit exhaustion with writeback-to-SSD fallback, and a
// swap-area cap that makes the OOM-killer model reachable. Set it on
// SystemConfig.Fault; the zero plan injects nothing and is byte-identical
// to an unfaulted run.
type FaultPlan = fault.Plan

// FaultStats counts what a plan injected (Metrics.Injected).
type FaultStats = fault.Stats

// FaultPreset resolves a named plan: "off", "mild", "severe".
func FaultPreset(name string) (FaultPlan, bool) { return fault.Preset(name) }

// FaultMild models occasional latency turbulence on an aging SSD.
func FaultMild() FaultPlan { return fault.Mild() }

// FaultSevere models a failing device: frequent storms, stalls, errors.
func FaultSevere() FaultPlan { return fault.Severe() }

// CheckpointStore persists completed experiment series so interrupted
// figure runs resume instead of re-executing (ExperimentOptions.Checkpoint).
type CheckpointStore = checkpoint.Store

// OpenCheckpoint opens (creating if needed) a checkpoint directory.
func OpenCheckpoint(dir string) (*CheckpointStore, error) { return checkpoint.Open(dir) }

// --- statistics re-exports ---

// Summary is a five-number summary with mean and deviation.
type Summary = stats.Summary

// Summarize computes a Summary.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// Percentile computes an interpolated percentile.
func Percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// LinearFit fits y = a*x+b and reports r².
func LinearFit(x, y []float64) stats.Regression { return stats.LinearFit(x, y) }

// WelchTTest compares two samples.
func WelchTTest(a, b []float64) stats.TTest { return stats.WelchTTest(a, b) }

// TailPoints are the percentiles the paper reports (p50..p99.99).
var TailPoints = stats.TailPoints

// --- low-level access for custom policies ---

// Memory, FrameID and Frame expose the physical-memory model to custom
// policies.
type (
	Memory  = mem.Memory
	FrameID = mem.FrameID
	Frame   = mem.Frame
	List    = mem.List
)

// NilFrame is the absent-frame sentinel.
const NilFrame = mem.NilFrame

// NewList creates an intrusive frame list with the given identity.
func NewList(m *Memory, id int16) *List { return mem.NewList(m, id) }

// PageTable exposes the page-table model (accessed-bit harvesting).
type PageTable = pagetable.Table

// RMap exposes the reverse map (physical-to-virtual resolution with a
// pointer-chase cost model).
type RMap = rmap.Map

// Env is the simulated-execution context passed to policies.
type Env = sim.Env

// DefaultPolicyCosts returns the calibrated scanning cost model.
func DefaultPolicyCosts() PolicyCosts { return policy.DefaultCosts() }
