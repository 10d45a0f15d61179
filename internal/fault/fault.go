// Package fault is the simulator's deterministic fault-injection plane.
// A Plan describes degraded-medium behaviour — SSD latency storms and
// whole-device stalls, transient read errors with kernel-style bounded
// retry + exponential backoff, zram pool mem-limit exhaustion with
// writeback-to-SSD fallback or reclaim stall, and swap-area exhaustion
// (which drives the OOM-killer model in internal/vmm). Wrap applies it to
// the swap device and WrapFile to the page cache's file backing device.
// A wrapper's I/O that fails past its retry budget ends in a *HardError
// (WriteStep's in WriteWalk.Err); the caller decides whether that fails
// the trial (the swap path) or degrades (the page cache).
//
// Everything is seeded: storm arrival times, storm durations, per-I/O
// extra latency, and read-error coin flips all draw from one RNG stream in
// device-operation order, so two runs of the same seed and plan are
// byte-identical. With the zero Plan no wrapper is installed anywhere and
// execution is bit-for-bit the un-faulted simulation.
package fault

import (
	"fmt"

	"mglrusim/internal/sim"
)

// StormConfig parameterizes SSD latency storms: windows of degraded
// service modeled on flash garbage-collection pauses and thermal
// throttling. Storms arrive as a Poisson process and last an
// exponentially distributed duration; during a storm every I/O pays extra
// latency, and a configurable fraction of storms stall the device
// entirely until the storm ends.
type StormConfig struct {
	// Rate is the storm arrival rate in storms per simulated second
	// (Poisson). Zero disables storms.
	Rate float64
	// MeanDuration is the mean storm length (exponentially distributed).
	MeanDuration sim.Duration
	// ExtraLatency is the mean additional delay per I/O during a
	// (non-stall) storm, log-normal-jittered by Jitter.
	ExtraLatency sim.Duration
	// Jitter is the log-normal sigma on ExtraLatency.
	Jitter float64
	// StallProb is the fraction of storms that are full device stalls:
	// every I/O issued during the storm blocks until the storm ends.
	StallProb float64
}

// Enabled reports whether storms are configured.
func (c StormConfig) Enabled() bool { return c.Rate > 0 && c.MeanDuration > 0 }

// ReadErrorConfig parameterizes transient read failures. Each completed
// read flips a seeded coin; on failure the faulting thread backs off and
// reissues the read, doubling the backoff each attempt the way the kernel
// block layer retries transient media errors. Exhausting MaxRetries is a
// hard error (*HardError) that fails the trial.
type ReadErrorConfig struct {
	// Prob is the per-read transient failure probability. Zero disables.
	Prob float64
	// MaxRetries bounds reissues per logical read.
	MaxRetries int
	// Backoff is the initial retry delay; it doubles per attempt, capped
	// at 32x.
	Backoff sim.Duration
}

// Enabled reports whether read errors are configured.
func (c ReadErrorConfig) Enabled() bool { return c.Prob > 0 }

// WriteErrorConfig parameterizes transient write failures on the wrapped
// device. Each completed write flips a seeded coin; on failure the writer
// backs off and reissues, doubling the backoff per attempt. What happens
// when MaxRetries is exhausted depends on the caller: swap writeback
// treats it as a hard error, while page-cache writeback records the page
// in the per-file error ledger (errseq_t-style) and moves on.
type WriteErrorConfig struct {
	// Prob is the per-write transient failure probability. Zero disables.
	Prob float64
	// MaxRetries bounds reissues per logical write.
	MaxRetries int
	// Backoff is the initial retry delay; it doubles per attempt, capped
	// at 32x.
	Backoff sim.Duration
}

// Enabled reports whether write errors are configured.
func (c WriteErrorConfig) Enabled() bool { return c.Prob > 0 }

// DeviceTarget selects which backing device(s) a plan's device-level
// faults apply to. The zero value targets the swap device, preserving the
// meaning of every pre-existing plan.
type DeviceTarget int

const (
	// TargetSwap applies device faults to the swap device only (default).
	TargetSwap DeviceTarget = iota
	// TargetFile applies device faults to the file backing device only.
	TargetFile
	// TargetBoth applies device faults to both devices (each gets its own
	// wrapper and RNG stream).
	TargetBoth
)

// String implements fmt.Stringer so Plans render readably in %+v
// configuration fingerprints.
func (t DeviceTarget) String() string {
	switch t {
	case TargetSwap:
		return "swap"
	case TargetFile:
		return "file"
	case TargetBoth:
		return "both"
	}
	return fmt.Sprintf("DeviceTarget(%d)", int(t))
}

// ZRAMPressureConfig models zram pool mem-limit exhaustion (the kernel's
// zram mem_limit). Once the pool's compressed bytes reach the limit, new
// writes either spill to a backing SSD (zram writeback) or stall the
// reclaiming thread, mimicking allocation stalls under pool pressure.
type ZRAMPressureConfig struct {
	// MemLimitBytes caps the compressed pool; zero disables the limit.
	// Only meaningful when the wrapped device is zram.
	MemLimitBytes int64
	// Writeback spills over-limit writes to a backing SSD instead of
	// stalling (requires a backing device at Wrap time).
	Writeback bool
	// StallDelay is how long an over-limit write stalls when Writeback is
	// off (or no backing device exists).
	StallDelay sim.Duration
}

// Enabled reports whether pool pressure is configured.
func (c ZRAMPressureConfig) Enabled() bool { return c.MemLimitBytes > 0 }

// Plan is a complete fault-injection scenario. All fields are plain
// values, so a Plan embedded in core.SystemConfig participates in the
// experiment runner's %+v configuration fingerprint automatically. The
// zero Plan injects nothing.
type Plan struct {
	// Target selects which device(s) the device-level faults below apply
	// to. The zero value is TargetSwap, so pre-existing plans keep their
	// meaning; a Target set on an otherwise-zero plan installs nothing.
	Target DeviceTarget
	// Storms degrades device latency in seeded windows.
	Storms StormConfig
	// ReadErrors injects transient read failures with bounded retry.
	ReadErrors ReadErrorConfig
	// WriteErrors injects transient write failures with bounded retry.
	WriteErrors WriteErrorConfig
	// ZRAM injects compressed-pool exhaustion.
	ZRAM ZRAMPressureConfig
	// SwapSlots caps the swap area at this many slots (zero keeps the
	// default footprint+slack sizing), forcing the swap-exhaustion → OOM
	// path in internal/vmm under sustained reclaim.
	SwapSlots int
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool { return p.DeviceEnabled() || p.SwapSlots > 0 }

// DeviceEnabled reports whether the plan needs a device wrapper.
func (p Plan) DeviceEnabled() bool {
	return p.Storms.Enabled() || p.ReadErrors.Enabled() || p.WriteErrors.Enabled() || p.ZRAM.Enabled()
}

// TargetsSwap reports whether device faults apply to the swap device.
func (p Plan) TargetsSwap() bool { return p.Target == TargetSwap || p.Target == TargetBoth }

// TargetsFile reports whether device faults apply to the file backing
// device.
func (p Plan) TargetsFile() bool { return p.Target == TargetFile || p.Target == TargetBoth }

// NeedsBacking reports whether the plan wants a writeback SSD behind the
// wrapped device.
func (p Plan) NeedsBacking() bool { return p.ZRAM.Enabled() && p.ZRAM.Writeback }

// Stats counts injected faults and their cost in one trial.
type Stats struct {
	Storms      uint64       // storm windows that began
	StallStorms uint64       // of which were full device stalls
	StormDelay  sim.Duration // total extra latency injected by storms

	TransientReadErrors uint64 // injected read failures
	ReadRetries         uint64 // reissued reads
	HardReadErrors      uint64 // read retry budgets exhausted

	TransientWriteErrors uint64 // injected write failures
	WriteRetries         uint64 // reissued writes
	HardWriteErrors      uint64 // write retry budgets exhausted
	PrefetchErrors       uint64 // injected failures on speculative reads

	WritebackPages uint64 // over-limit writes spilled to the backing SSD
	WritebackReads uint64 // reads served from the backing SSD
	PoolStalls     uint64 // over-limit writes that stalled instead
	PoolStallTime  sim.Duration
}

// Add accumulates other into s (series-level aggregation). Every field of
// Stats must appear here; a reflection test enforces completeness.
func (s *Stats) Add(other Stats) {
	s.Storms += other.Storms
	s.StallStorms += other.StallStorms
	s.StormDelay += other.StormDelay
	s.TransientReadErrors += other.TransientReadErrors
	s.ReadRetries += other.ReadRetries
	s.HardReadErrors += other.HardReadErrors
	s.TransientWriteErrors += other.TransientWriteErrors
	s.WriteRetries += other.WriteRetries
	s.HardWriteErrors += other.HardWriteErrors
	s.PrefetchErrors += other.PrefetchErrors
	s.WritebackPages += other.WritebackPages
	s.WritebackReads += other.WritebackReads
	s.PoolStalls += other.PoolStalls
	s.PoolStallTime += other.PoolStallTime
}

// HardError is an unrecoverable injected device error: an I/O whose retry
// budget is exhausted, returned by the wrapper's I/O methods. The swap
// path panics it, so it surfaces as the trial error and is classified as
// retryable-with-a-fresh-seed by the experiment harness. The page cache
// instead absorbs it into a kernel-faithful degradation path (poisoned
// page / error ledger) and the trial continues.
type HardError struct {
	Device   string
	Op       string // "read" or "write"; empty means "read" (legacy)
	Slot     int32
	Attempts int
}

// Error implements error.
func (e *HardError) Error() string {
	op := e.Op
	if op == "" {
		op = "read"
	}
	return fmt.Sprintf("fault: hard %s error on %s slot %d after %d attempts", op, e.Device, e.Slot, e.Attempts)
}

// Preset resolves a named fault plan for CLI use. Known names: "off",
// "mild", "severe", "file-mild", "file-severe".
func Preset(name string) (Plan, bool) {
	switch name {
	case "", "off", "none":
		return Plan{}, true
	case "mild":
		return Mild(), true
	case "severe":
		return Severe(), true
	case "file-mild":
		return MildFile(), true
	case "file-severe":
		return SevereFile(), true
	}
	return Plan{}, false
}

// Mild models occasional latency turbulence on an aging SSD: short
// storms adding a few milliseconds per I/O, and rare transient read
// errors that one or two retries absorb.
func Mild() Plan {
	return Plan{
		Storms: StormConfig{
			Rate:         0.5,
			MeanDuration: 200 * sim.Millisecond,
			ExtraLatency: 5 * sim.Millisecond,
			Jitter:       0.3,
		},
		ReadErrors: ReadErrorConfig{
			Prob:       0.0005,
			MaxRetries: 8,
			Backoff:    1 * sim.Millisecond,
		},
	}
}

// Severe models a failing device: frequent long storms, a quarter of
// them whole-device stalls, and 0.5% transient read errors.
func Severe() Plan {
	return Plan{
		Storms: StormConfig{
			Rate:         2,
			MeanDuration: 500 * sim.Millisecond,
			ExtraLatency: 15 * sim.Millisecond,
			Jitter:       0.5,
			StallProb:    0.25,
		},
		ReadErrors: ReadErrorConfig{
			Prob:       0.005,
			MaxRetries: 10,
			Backoff:    2 * sim.Millisecond,
		},
	}
}

// MildFile models an aging file-backing device: short latency storms and
// rare transient I/O errors on both directions, with retry budgets deep
// enough that almost everything is absorbed — degradation shows up as
// latency and retry counts, not poisoned pages.
func MildFile() Plan {
	return Plan{
		Target: TargetFile,
		Storms: StormConfig{
			Rate:         0.5,
			MeanDuration: 150 * sim.Millisecond,
			ExtraLatency: 3 * sim.Millisecond,
			Jitter:       0.3,
		},
		ReadErrors: ReadErrorConfig{
			Prob:       0.01,
			MaxRetries: 6,
			Backoff:    500 * sim.Microsecond,
		},
		WriteErrors: WriteErrorConfig{
			Prob:       0.01,
			MaxRetries: 6,
			Backoff:    500 * sim.Microsecond,
		},
	}
}

// SevereFile models a dying file-backing device: frequent stally storms
// and high transient error rates with shallow retry budgets, so a visible
// fraction of demand reads poison pages (SIGBUS analog) and writeback
// exhausts into the per-file error ledger (data at risk). Dirty pages
// pile up behind the slow, erroring device and push writers into the
// hard dirty throttle.
func SevereFile() Plan {
	return Plan{
		Target: TargetFile,
		Storms: StormConfig{
			Rate:         2,
			MeanDuration: 400 * sim.Millisecond,
			ExtraLatency: 10 * sim.Millisecond,
			Jitter:       0.5,
			StallProb:    0.3,
		},
		ReadErrors: ReadErrorConfig{
			Prob:       0.2,
			MaxRetries: 2,
			Backoff:    1 * sim.Millisecond,
		},
		WriteErrors: WriteErrorConfig{
			Prob:       0.2,
			MaxRetries: 2,
			Backoff:    1 * sim.Millisecond,
		},
	}
}
