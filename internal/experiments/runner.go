package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/vmm"
	"mglrusim/internal/workload"
)

// Series is the result of running one (workload, policy, system)
// configuration for N independent trials.
type Series struct {
	Workload string
	Policy   string
	System   core.SystemConfig
	Trials   []core.Metrics
}

// Runtimes returns per-trial runtimes in seconds.
func (s *Series) Runtimes() []float64 {
	out := make([]float64, len(s.Trials))
	for i, m := range s.Trials {
		out[i] = m.RuntimeSeconds()
	}
	return out
}

// Faults returns per-trial total fault counts.
func (s *Series) Faults() []float64 {
	out := make([]float64, len(s.Trials))
	for i, m := range s.Trials {
		out[i] = m.Faults()
	}
	return out
}

// MeanRequestNS returns per-trial mean request latencies (YCSB-style
// workloads), in nanoseconds.
func (s *Series) MeanRequestNS() []float64 {
	out := make([]float64, len(s.Trials))
	for i, m := range s.Trials {
		n := m.ReadLat.Count() + m.WriteLat.Count()
		if n == 0 {
			continue
		}
		sum := m.ReadLat.Mean()*float64(m.ReadLat.Count()) + m.WriteLat.Mean()*float64(m.WriteLat.Count())
		out[i] = sum / float64(n)
	}
	return out
}

// Performance returns the workload's headline metric per trial: mean
// request latency for latency workloads, runtime otherwise.
func (s *Series) Performance(latency bool) []float64 {
	if latency {
		return s.MeanRequestNS()
	}
	return s.Runtimes()
}

// MergedReadTail aggregates all trials' read latencies at the paper's
// tail points.
func (s *Series) MergedReadTail() []float64 {
	agg := stats.NewLatencyRecorder(0)
	for _, m := range s.Trials {
		agg.Merge(m.ReadLat)
	}
	return agg.Tail()
}

// MergedWriteTail aggregates all trials' write latencies.
func (s *Series) MergedWriteTail() []float64 {
	agg := stats.NewLatencyRecorder(0)
	for _, m := range s.Trials {
		agg.Merge(m.WriteLat)
	}
	if agg.Count() == 0 {
		return make([]float64, len(stats.TailPoints))
	}
	return agg.Tail()
}

// MergedFaultTail aggregates all trials' major-fault service times at
// the paper's tail points (the fault-latency CDF of the degraded-device
// sweep). Trials without a recorder contribute nothing.
func (s *Series) MergedFaultTail() []float64 {
	agg := stats.NewLatencyRecorder(0)
	for _, m := range s.Trials {
		if m.FaultLat != nil {
			agg.Merge(m.FaultLat)
		}
	}
	if agg.Count() == 0 {
		return make([]float64, len(stats.TailPoints))
	}
	return agg.Tail()
}

// MeanFaultNS returns the mean major-fault service time across all
// trials, in nanoseconds.
func (s *Series) MeanFaultNS() float64 {
	agg := stats.NewLatencyRecorder(0)
	for _, m := range s.Trials {
		if m.FaultLat != nil {
			agg.Merge(m.FaultLat)
		}
	}
	return agg.Mean()
}

// InjectionTotals sums the fault plane's injection counters across all
// trials.
func (s *Series) InjectionTotals() fault.Stats {
	var t fault.Stats
	for _, m := range s.Trials {
		t.Add(m.Injected)
	}
	return t
}

// FileInjectionTotals sums the fault plane's file-device injection
// counters across all trials.
func (s *Series) FileInjectionTotals() fault.Stats {
	var t fault.Stats
	for _, m := range s.Trials {
		t.Add(m.FileInjected)
	}
	return t
}

// FileCacheTotals sums the page cache's counters across all trials.
func (s *Series) FileCacheTotals() pagecache.Stats {
	var t pagecache.Stats
	for _, m := range s.Trials {
		t.Add(m.FileCache)
	}
	return t
}

// Options configures a harness run.
type Options struct {
	// Trials per configuration (the paper uses 25).
	Trials int
	// Scale multiplies workload footprints (1.0 = calibrated default).
	Scale float64
	// RegionPTEs is the page-table region fanout every workload is laid
	// out with and every system is configured for — the single knob
	// region geometry derives from (0 = workload.DefaultRegionPTEs).
	// Full-scale runs set the kernel's 512-PTE PMD fanout. An explicit
	// workload.DefaultRegionPTEs normalizes to 0, so both spellings of
	// the default share one cache key.
	RegionPTEs int
	// Seed is the base seed; trial i of a series derives its system
	// seed from it. The workload seed is fixed so trials are "otherwise
	// identical executions".
	Seed uint64
	// Parallelism bounds concurrent trials (0 = GOMAXPROCS).
	Parallelism int
	// Audit runs every trial with the invariant auditor enabled
	// (internal/check); any bookkeeping violation fails the series.
	Audit bool
	// Fault applies a fault-injection plan (internal/fault) to every
	// system configuration that does not already carry its own plan. The
	// zero plan injects nothing.
	Fault fault.Plan
	// Watchdog enables the per-trial virtual-time progress watchdog for
	// configurations that do not set their own window: a trial making no
	// workload progress for this long fails with a typed LivelockError
	// instead of simulating forever. Zero disables.
	Watchdog sim.Duration
	// Retries bounds per-trial re-execution of transient, injection-
	// induced failures (hard device errors, livelocks, OOM with nothing
	// to reap). Each retry perturbs the trial's system seed; results are
	// still deterministic for a fixed (seed, plan, retry budget). Zero
	// disables retries.
	Retries int
	// Checkpoint, when non-nil, persists each completed series and
	// resumes from persisted ones, so a crashed or interrupted figure run
	// re-executes only what it had not finished.
	Checkpoint *checkpoint.Store
	// Progress, when non-nil, receives one line per completed series.
	Progress io.Writer
	// TraceDir, when non-empty, enables per-trial telemetry: every executed
	// trial writes a Chrome trace-event JSON and a counter CSV into the
	// directory, and failed or OOM-degraded trials additionally write a
	// flight-recorder dump. File names are deterministic functions of the
	// configuration and trial index, so same-seed runs produce identical
	// artifact sets regardless of Parallelism. Tracing does not change
	// metrics, seeds, or cache keys; note that series resumed from a
	// checkpoint skip execution and therefore write no artifacts.
	TraceDir string
	// MetricsInterval is the virtual-time cadence of counter snapshots in
	// traced runs. Zero defaults to 10 simulated milliseconds when TraceDir
	// is set.
	MetricsInterval sim.Duration
	// Veto, when non-nil, is consulted with each series' cache key before
	// execution; a non-nil return fails the series immediately with that
	// error. The shard executor uses it to fail quarantined (poison) cells
	// fast instead of re-executing a known-deterministic failure serially.
	// Consulted per Run call (not cached), so a quarantine that appears
	// mid-run takes effect.
	Veto func(key string) error
}

// DefaultOptions mirrors the paper's methodology.
func DefaultOptions() Options {
	return Options{Trials: 25, Scale: 1.0, Seed: 0x5EED, Parallelism: 0}
}

// FullScaleOptions is the full-scale run profile: workload footprints at
// the paper's native size rather than the calibrated 1/1000 miniature.
// At scale 1000 the tpch footprint is ≈3.9M pages (≈15.7 GB of simulated
// memory at 4 KB pages, inside the paper testbed's 12–16 GB band), laid
// out with the kernel's 512-PTE PMD fanout so region geometry matches
// real PMDs. Trials drop to 3 — full-scale runs characterize the memory
// layout and scan machinery, not the paper's 25-trial statistics.
func FullScaleOptions() Options {
	return Options{Trials: 3, Scale: 1000, Seed: 0x5EED, RegionPTEs: 512}
}

func (o Options) normalized() Options {
	if o.Trials <= 0 {
		o.Trials = 25
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 0x5EED
	}
	if o.RegionPTEs == workload.DefaultRegionPTEs {
		o.RegionPTEs = 0
	}
	if o.TraceDir != "" && o.MetricsInterval <= 0 {
		o.MetricsInterval = 10 * sim.Millisecond
	}
	return o
}

// Runner executes series with caching, so figures that share a
// configuration (for example Fig 1 and Fig 2) reuse trials within one
// harness invocation. Concurrent Run calls for the same configuration are
// deduplicated singleflight-style: exactly one goroutine executes the
// series, the rest wait for its result.
type Runner struct {
	opts  Options
	mu    sync.Mutex
	cache map[string]*seriesCall

	// wlMu guards workload memoization: construction (graph generation,
	// zipf tables) is expensive and workloads are stateless across
	// Threads calls, so one instance per spec name serves every series.
	wlMu sync.Mutex
	wls  map[string]workload.Workload

	// collect, when non-nil, switches the runner into enumeration mode:
	// Run records the cell it WOULD execute and returns a synthetic series
	// without running (or even constructing) anything. See CellsFor.
	collect *cellCollector

	// fence, when set, guards checkpoint publication: it is re-evaluated
	// per commit attempt with the cell's cache key, and any error it
	// returns (typically a checkpoint.FencedError from a lost lease)
	// aborts the write and fails the series. See SetFence.
	fence atomic.Pointer[func(key string) error]
}

// seriesCall is one in-flight or completed series execution.
type seriesCall struct {
	done chan struct{} // closed when s/err are final
	s    *Series
	err  error
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:  opts.normalized(),
		cache: map[string]*seriesCall{},
		wls:   map[string]workload.Workload{},
	}
}

// Options returns the normalized options.
func (r *Runner) Options() Options { return r.opts }

// seedKey captures the identity triple that trial seeds are derived from.
// Deliberately narrower than the cache key: two runs differing only in
// VMM knobs or device parameters draw identical seeds, keeping them
// "otherwise identical executions".
func seedKey(w WorkloadSpec, p PolicySpec, sys core.SystemConfig) string {
	return fmt.Sprintf("%s|%s|cpus=%d ratio=%.3f swap=%s", w.Name, p.Name, sys.CPUs, sys.Ratio, sys.Swap)
}

// cacheKey is the full configuration fingerprint a cached series is valid
// for: every SystemConfig field (VMM knobs, device parameters, FlushCPU —
// all plain values, so %+v covers them recursively) plus the run options
// that shape results. Earlier versions keyed only on (cpus, ratio, swap)
// and silently shared trials between configs differing in anything else.
func (r *Runner) cacheKey(sk string, sys core.SystemConfig) string {
	return fmt.Sprintf("%s|%+v|scale=%g trials=%d seed=%d", sk, sys, r.opts.Scale, r.opts.Trials, r.opts.Seed)
}

// workloads returns the full workload matrix at the runner's scale and
// region fanout; figure functions use these runner-scoped helpers so a
// runner's RegionPTEs knob reaches workload layout and system config
// from one place.
func (r *Runner) workloads() []WorkloadSpec {
	return WorkloadsAt(r.opts.Scale, r.opts.RegionPTEs)
}

// workloadByName resolves one workload at the runner's scale and fanout.
func (r *Runner) workloadByName(name string) WorkloadSpec {
	return WorkloadByNameAt(name, r.opts.Scale, r.opts.RegionPTEs)
}

// batchWorkloads returns the runtime-metric workloads at the runner's
// scale and fanout.
func (r *Runner) batchWorkloads() []WorkloadSpec {
	return batchWorkloads(r.opts.Scale, r.opts.RegionPTEs)
}

// ycsbWorkloads returns the latency-metric workloads at the runner's
// scale and fanout.
func (r *Runner) ycsbWorkloads() []WorkloadSpec {
	return ycsbWorkloads(r.opts.Scale, r.opts.RegionPTEs)
}

// workload returns the memoized workload instance for spec w.
func (r *Runner) workload(w WorkloadSpec) workload.Workload {
	r.wlMu.Lock()
	defer r.wlMu.Unlock()
	wl, ok := r.wls[w.Name]
	if !ok {
		wl = w.Make()
		r.wls[w.Name] = wl
	}
	return wl
}

// Run executes (or returns the cached) series for the triple.
func (r *Runner) Run(w WorkloadSpec, p PolicySpec, sys core.SystemConfig) (*Series, error) {
	// Fold the runner-wide options into the system config before
	// fingerprinting, so a cached (or checkpointed) series is never served
	// across a differing audit/fault/watchdog/fanout setting. Configs
	// carrying their own plan, window, or fanout win over the runner-wide
	// defaults.
	sys.VMM.Audit = sys.VMM.Audit || r.opts.Audit
	if sys.RegionPTEs == 0 {
		sys.RegionPTEs = r.opts.RegionPTEs
	}
	if !sys.Fault.Enabled() && r.opts.Fault.Enabled() {
		sys.Fault = r.opts.Fault
	}
	if sys.Watchdog == 0 {
		sys.Watchdog = r.opts.Watchdog
	}
	sk := seedKey(w, p, sys)
	key := r.cacheKey(sk, sys)

	if r.collect != nil {
		r.collect.add(CellSpec{
			Workload: w.Name, Policy: p.Name, System: sys,
			SeedKey: sk, Key: key,
			Cost: estimateCost(w, p, sys, r.opts),
		})
		return syntheticSeries(w, p, sys, r.opts.Trials), nil
	}
	if r.opts.Veto != nil {
		if err := r.opts.Veto(key); err != nil {
			return nil, fmt.Errorf("series %s vetoed: %w", sk, err)
		}
	}

	r.mu.Lock()
	if c, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-c.done
		return c.s, c.err
	}
	c := &seriesCall{done: make(chan struct{})}
	r.cache[key] = c
	r.mu.Unlock()

	c.s, c.err = r.runSeriesCheckpointed(w, p, sys, sk, key)
	close(c.done)
	if c.err != nil {
		// Drop failed executions from the cache so a later call retries
		// instead of replaying the error forever.
		r.mu.Lock()
		if r.cache[key] == c {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	return c.s, c.err
}

// SetFence installs (or, with nil, clears) the publication fence: a
// callback invoked with the cell's cache key at every checkpoint commit
// attempt. A non-nil return aborts the publication and fails the series
// with that error — this is how the shard executor binds a series to its
// lease epoch, so a worker resumed after its lease was stolen is fenced
// at the store instead of double-publishing. Safe to swap concurrently
// with Run; callers that share a Runner across worker slots must scope
// the callback by key.
func (r *Runner) SetFence(fence func(key string) error) {
	if fence == nil {
		r.fence.Store(nil)
		return
	}
	r.fence.Store(&fence)
}

func (r *Runner) fenceFor(key string) func() error {
	f := r.fence.Load()
	if f == nil {
		return nil
	}
	return func() error { return (*f)(key) }
}

// runSeriesCheckpointed wraps runSeries with the persistent series store:
// a valid stored result short-circuits execution entirely (resume), and a
// fresh success is persisted before being returned. In a batch run,
// store write failures degrade to a progress note — persistence is
// best-effort, the run's own results are never at risk. Two outcomes
// always fail the series loudly: divergent duplicate bytes (a
// determinism violation) and a fenced publication (the authorizing lease
// was superseded — the result must not be trusted as the cell's
// outcome). Under a fence any other write failure fails the series too:
// there the store entry is the cell's only outcome, so a lost write is a
// failed attempt for the shard queue to requeue, not a note.
func (r *Runner) runSeriesCheckpointed(w WorkloadSpec, p PolicySpec, sys core.SystemConfig, sk, key string) (*Series, error) {
	invalidEntry := false
	if r.opts.Checkpoint != nil {
		if data, ok := r.opts.Checkpoint.Get(key); ok {
			if s, ok := decodeSeries(key, data); ok {
				if r.opts.Progress != nil {
					fmt.Fprintf(r.opts.Progress, "series %-40s resumed from checkpoint (%d trials)\n", sk, len(s.Trials))
				}
				return s, nil
			}
			invalidEntry = true
		}
	}
	s, err := r.runSeries(w, p, sys, sk, key)
	if err == nil && r.opts.Checkpoint != nil {
		fence := r.fenceFor(key)
		data, encErr := encodeSeries(key, s)
		if encErr == nil {
			if invalidEntry {
				// The stored entry failed validation (torn write, version
				// skew): overwrite it, per the store's resume contract —
				// but never past the fence.
				if fence != nil {
					encErr = fence()
				}
				if encErr == nil {
					encErr = r.opts.Checkpoint.Put(key, data)
				}
			} else {
				// PutVerifyFenced, not Put: under at-least-once sharded
				// execution two workers can complete the same cell;
				// byte-identical duplicates are fine, divergent bytes mean
				// the trials were not deterministic and must fail loudly
				// with both payloads kept on disk for diffing — and a
				// writer whose lease epoch was superseded is fenced before
				// either comparison, so a zombie can never publish at all.
				encErr = r.opts.Checkpoint.PutVerifyFenced(key, data, fence)
			}
		}
		var conflict *checkpoint.ConflictError
		if errors.As(encErr, &conflict) {
			return nil, fmt.Errorf("series %s: determinism violation: duplicate completion produced different bytes: %w", sk, conflict)
		}
		if errors.Is(encErr, checkpoint.ErrFenced) {
			return nil, fmt.Errorf("series %s: publication fenced: %w", sk, encErr)
		}
		if encErr != nil && fence != nil {
			return nil, fmt.Errorf("series %s: publication failed: %w", sk, encErr)
		}
		if encErr != nil && r.opts.Progress != nil {
			fmt.Fprintf(r.opts.Progress, "series %-40s checkpoint write failed: %v\n", sk, encErr)
		}
	}
	return s, err
}

// runSeries executes all trials of one series. The first trial failure
// closes cancel, which stops the launch loop and makes queued trials
// return without starting a simulation — in-flight siblings are not
// torn down mid-simulation (the engine is single-threaded per trial),
// but no further work begins after a failure.
func (r *Runner) runSeries(w WorkloadSpec, p PolicySpec, sys core.SystemConfig, sk, key string) (*Series, error) {
	s := &Series{Workload: w.Name, Policy: p.Name, System: sys,
		Trials: make([]core.Metrics, r.opts.Trials)}
	traceBase := r.traceBase(sk, key)

	// The workload seed is fixed per configuration; the system seed
	// varies per trial.
	wl := r.workload(w)
	workloadSeed := r.opts.Seed ^ 0xABCD

	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		err    error
		cancel = make(chan struct{})
	)
	fail := func(e error) {
		errMu.Lock()
		if err == nil {
			err = e
			close(cancel)
		}
		errMu.Unlock()
	}
	sem := make(chan struct{}, r.opts.Parallelism)
launch:
	for i := 0; i < r.opts.Trials; i++ {
		i := i
		select {
		case <-cancel:
			break launch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			select {
			case <-cancel:
				return // a sibling already failed; skip this trial
			default:
			}
			sysSeed := trialSeed(r.opts.Seed, sk, i)
			m, e := r.runTrialResilient(wl, p.Make, sys, workloadSeed, sysSeed, sk, traceBase, i)
			if e != nil {
				fail(fmt.Errorf("%s trial %d: %w", sk, i, e))
				return
			}
			s.Trials[i] = m
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}

	if r.opts.Progress != nil {
		mean := stats.Mean(s.Runtimes())
		fmt.Fprintf(r.opts.Progress, "series %-40s %d trials, mean runtime %.2fs\n", sk, r.opts.Trials, mean)
	}
	return s, nil
}

// runTrialResilient executes one trial with panic→error recovery and the
// configured retry budget. Attempt 0 uses sysSeed unchanged (so runs with
// Retries=0 are byte-identical to the pre-resilience harness); retryable
// failures re-execute with a deterministically perturbed seed, modeling
// "rerun the execution" the way an operator would after a hard device
// error.
func (r *Runner) runTrialResilient(wl workload.Workload, mk core.PolicyFactory, sys core.SystemConfig,
	workloadSeed, sysSeed uint64, sk, traceBase string, trial int) (core.Metrics, error) {
	for attempt := 0; ; attempt++ {
		tr := r.newTracer()
		m, err := safeRunTrial(wl, mk, sys, workloadSeed, sysSeed+uint64(attempt)*0xBF58476D1CE4E5B9, tr)
		if tr != nil {
			r.writeTrialArtifacts(traceBase, trial, attempt, tr, m, err)
		}
		if err == nil {
			return m, nil
		}
		if attempt >= r.opts.Retries || !Retryable(err) {
			return core.Metrics{}, err
		}
		if r.opts.Progress != nil {
			fmt.Fprintf(r.opts.Progress, "series %-40s trial %d attempt %d failed transiently, retrying: %v\n", sk, trial, attempt, err)
		}
	}
}

// safeRunTrial converts a panicking trial — a policy bug, a model
// violation — into an error, so one broken cell cannot take down the
// whole harness process.
func safeRunTrial(wl workload.Workload, mk core.PolicyFactory, sys core.SystemConfig,
	workloadSeed, sysSeed uint64, tr *telemetry.Tracer) (m core.Metrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = fmt.Errorf("trial panicked: %w\n%s", e, debug.Stack())
			} else {
				err = fmt.Errorf("trial panicked: %v\n%s", p, debug.Stack())
			}
		}
	}()
	return core.RunTrialOpts(wl, mk, sys, workloadSeed, sysSeed, core.TrialOptions{Telemetry: tr})
}

// Retryable reports whether err is a transient, injection-induced trial
// failure worth re-executing with a perturbed seed: a hard injected
// device error, a watchdog-detected livelock, or an OOM with no reapable
// victim. Deterministic failures (policy panics, invariant violations)
// are not retryable — rerunning would only hide them.
func Retryable(err error) bool {
	var hard *fault.HardError
	var live *core.LivelockError
	var oom *vmm.OOMError
	return errors.As(err, &hard) || errors.As(err, &live) || errors.As(err, &oom)
}

// trialSeed derives a per-trial system seed that differs across series
// and trials but is stable for a given base seed.
func trialSeed(base uint64, key string, trial int) uint64 {
	h := base
	for _, c := range key {
		h = h*1099511628211 + uint64(c)
	}
	return h*2654435761 + uint64(trial)*0x9E3779B97F4A7C15 + 1
}

// MatrixCellError annotates one failed (workload, policy) cell of a
// matrix run.
type MatrixCellError struct {
	Workload, Policy string
	Err              error
}

// Error implements error.
func (e MatrixCellError) Error() string {
	return fmt.Sprintf("%s/%s: %v", e.Workload, e.Policy, e.Err)
}

// Unwrap exposes the underlying trial error for errors.As classification.
func (e MatrixCellError) Unwrap() error { return e.Err }

// MatrixResult is the outcome of RunMatrix: every completed cell plus
// per-cell failure annotations. A panicking or livelocked trial fails
// only its own cell; the rest of the matrix still runs and is returned.
type MatrixResult struct {
	// Series maps workload name → policy name → completed series.
	// Failed cells are absent.
	Series map[string]map[string]*Series
	// Failed lists the cells that did not complete, in sweep order.
	Failed []MatrixCellError
}

// Get returns the series for (workload, policy), or nil if that cell
// failed or was never run.
func (m *MatrixResult) Get(workload, policy string) *Series {
	return m.Series[workload][policy]
}

// Complete reports whether every cell succeeded.
func (m *MatrixResult) Complete() bool { return len(m.Failed) == 0 }

// Err summarizes the failed cells, or nil when the matrix is complete.
func (m *MatrixResult) Err() error {
	if len(m.Failed) == 0 {
		return nil
	}
	return fmt.Errorf("experiments: %d matrix cell(s) failed; first: %w", len(m.Failed), m.Failed[0])
}

// RunMatrix executes every (workload, policy) combination under sys,
// degrading gracefully: a failing cell is recorded in the result's Failed
// list and the sweep continues. The returned error is non-nil only when
// no cell completed at all (the result still carries the annotations).
func (r *Runner) RunMatrix(ws []WorkloadSpec, ps []PolicySpec, sys core.SystemConfig) (*MatrixResult, error) {
	out := &MatrixResult{Series: map[string]map[string]*Series{}}
	completed := 0
	for _, w := range ws {
		out.Series[w.Name] = map[string]*Series{}
		for _, p := range ps {
			s, err := r.Run(w, p, sys)
			if err != nil {
				out.Failed = append(out.Failed, MatrixCellError{Workload: w.Name, Policy: p.Name, Err: err})
				continue
			}
			out.Series[w.Name][p.Name] = s
			completed++
		}
	}
	if completed == 0 && len(out.Failed) > 0 {
		return out, fmt.Errorf("experiments: every matrix cell failed; first: %w", out.Failed[0])
	}
	return out, nil
}

// SystemAt returns the default system with the given ratio and medium.
func SystemAt(ratio float64, swapKind core.SwapKind) core.SystemConfig {
	sys := core.DefaultSystemConfig()
	sys.Ratio = ratio
	sys.Swap = swapKind
	return sys
}
