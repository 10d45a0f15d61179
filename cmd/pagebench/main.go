// Command pagebench regenerates the paper's figures on the simulator.
//
// Usage:
//
//	pagebench -figure fig1            # one figure
//	pagebench -figure fig1,fig2      # several
//	pagebench -figure all            # the whole evaluation
//	pagebench -figure ext1           # extension: degraded-device sweep
//	pagebench -figure ext3           # extension: degraded FILE device (page cache)
//	pagebench -trials 25 -scale 1.0  # methodology knobs
//	pagebench -size fullscale -figure fig1   # native 3-4M-page footprints, 512-PTE regions
//	pagebench -region 512 -figure fig1       # region fanout (a multiple of 64)
//
//	pagebench -figure all -checkpoint ckpt/                    # crash-safe runs
//	pagebench -figure all -checkpoint ckpt/ -workers 4         # multi-process scale-out
//	pagebench -figure all -faults severe -watchdog 60s...      # fault injection
//
//	pagebench -figure all -cpuprofile cpu.pb.gz                # profile
//
// Each figure prints a plain-text table whose rows correspond to the
// series plotted in the paper. Host-time benchmarks live elsewhere: the
// micro paths in internal/bench (go test -bench) and the end-to-end
// workloads in the benchmark/ module (bash benchmark/run.sh).
//
// With -checkpoint, every completed series is persisted to the given
// directory; an interrupted run (SIGINT or SIGKILL) resumed with the same
// flags re-executes only unfinished series and produces byte-identical
// figures. SIGINT flushes the profile writers before exiting with code
// 130.
//
// With -workers N (requires -checkpoint), pagebench becomes a shard
// coordinator: it re-invokes itself N times in -worker mode, and the
// workers self-schedule the figure cells through on-disk leases under
// <checkpoint>/shard, surviving worker crashes and SIGKILL. SIGINT
// drains the fleet — each worker finishes its in-flight cell and
// checkpoints it — and the run resumes with the same flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/fault"
	"mglrusim/internal/shard"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// exitInterrupted is the distinct exit code for a SIGINT-terminated run
// (128 + SIGINT, the shell convention).
const exitInterrupted = 130

// interruptHook, when set, takes over SIGINT/SIGTERM handling: the shard
// modes install a drain function here so an interrupt finishes in-flight
// cells and checkpoints them instead of exiting mid-cell.
var interruptHook atomic.Pointer[func()]

func main() { os.Exit(realMain()) }

// flusher collects cleanup work — profile writers, output flushes — that
// must run exactly once whether the process exits normally or on SIGINT.
type flusher struct {
	mu   sync.Mutex
	fns  []func()
	done bool
}

func (f *flusher) add(fn func()) {
	f.mu.Lock()
	f.fns = append(f.fns, fn)
	f.mu.Unlock()
}

func (f *flusher) run() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.done = true
	// LIFO, like defers: StopCPUProfile before the file close it depends on.
	for i := len(f.fns) - 1; i >= 0; i-- {
		f.fns[i]()
	}
}

// realMain returns the exit code so the cleanup registry runs before the
// process exits.
func realMain() int {
	var (
		figure   = flag.String("figure", "all", "figure id (fig1..fig12, ext1...), comma list, or 'all'")
		trials   = flag.Int("trials", 25, "trials per configuration (paper: 25)")
		scale    = flag.Float64("scale", 1.0, "workload footprint scale factor")
		size     = flag.String("size", "scaled", "run profile: 'scaled' (calibrated 1/1000 footprints) or 'fullscale' (native 3-4M-page footprints, 512-PTE regions, 3 trials; explicit -scale/-region/-trials still win)")
		region   = flag.Int("region", 0, "page-table region fanout in PTEs, a multiple of 64 (0 = profile default; kernel PMDs are 512)")
		seed     = flag.Uint64("seed", 0x5EED, "base seed")
		parallel = flag.Int("parallel", 0, "concurrent trials (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print per-series progress")
		audit    = flag.Bool("audit", false, "run every trial with the kernel invariant auditor enabled (slower; fails on any bookkeeping violation)")
		csvDir   = flag.String("csv", "", "also write each figure's data points as CSV into this directory")

		ckptDir = flag.String("checkpoint", "", "persist completed series into this directory and resume from it")

		workers       = flag.Int("workers", 0, "run figure cells across N supervised worker processes sharing -checkpoint (0 = in-process)")
		workerMode    = flag.Bool("worker", false, "run as one shard worker over the -checkpoint queue (spawned by -workers; exits when the queue is resolved)")
		leaseTTL      = flag.Duration("lease-ttl", 10*time.Second, "shard lease time-to-live; bounds how long a crashed worker's cell stays claimed")
		shardAttempts = flag.Int("shard-attempts", 5, "per-cell execution budget before a failing cell is quarantined")
		maxSkew       = flag.Duration("max-skew", 0, "clock-skew grace before stealing an expired lease; set when workers span machines over a shared filesystem (NFS)")
		owner         = flag.String("owner", "", "lease-owner identity for this worker (default: host/pid/nonce, enabling same-host dead-worker fast reclaim)")
		faults        = flag.String("faults", "", "fault-injection preset applied to every series: off, mild, severe, file-mild, file-severe")
		watchdog      = flag.Duration("watchdog", 0, "virtual-time progress watchdog window (e.g. 60s of simulated time; 0 = off)")
		retries       = flag.Int("retries", 0, "per-trial retries of transient fault-injected failures")

		traceDir        = flag.String("trace", "", "write per-trial telemetry (Chrome trace JSON, counter CSV, flight dumps) into this directory")
		metricsInterval = flag.Duration("metrics-interval", 0, "virtual-time cadence of counter snapshots in traced runs (simulated time; 0 = 10ms)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	fl := &flusher{}
	defer fl.run()

	// SIGINT: flush everything registered (profiles; checkpoint writes are
	// already atomic per series) and exit with a distinct code. A second
	// SIGINT during cleanup falls back to the default handler.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc)
		if h := interruptHook.Load(); h != nil {
			// Shard mode: drain instead of exiting — the mode's main path
			// observes the drain, flushes, and chooses the exit code. A
			// second interrupt falls through to default termination.
			(*h)()
			return
		}
		fmt.Fprintln(os.Stderr, "pagebench: interrupted — flushing profiles and exiting (completed series are checkpointed)")
		fl.run()
		os.Exit(exitInterrupted)
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("create %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("start cpu profile: %v", err)
		}
		fl.add(func() { f.Close() })
		fl.add(pprof.StopCPUProfile)
	}
	if *memProfile != "" {
		path := *memProfile
		fl.add(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pagebench: create %s: %v\n", path, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pagebench: write heap profile: %v\n", err)
			}
		})
	}

	// Resolve the run profile before anything consumes the methodology
	// knobs (including worker argv): -size picks the defaults, explicitly
	// set flags override them.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *size {
	case "scaled":
	case "fullscale":
		fs := experiments.FullScaleOptions()
		if !explicit["scale"] {
			*scale = fs.Scale
		}
		if !explicit["region"] {
			*region = fs.RegionPTEs
		}
		if !explicit["trials"] {
			*trials = fs.Trials
		}
	default:
		fatalf("unknown run profile %q (known: scaled, fullscale)", *size)
	}
	// Every region must own whole 64-bit words of the page table's bit
	// planes; reject a bad fanout here, before any worker or trial starts.
	if *region < 0 || *region%64 != 0 {
		fatalf("-region %d: the page-table region fanout must be a multiple of 64", *region)
	}

	plan, ok := fault.Preset(*faults)
	if !ok {
		fatalf("unknown fault preset %q (known: off, mild, severe, file-mild, file-severe)", *faults)
	}
	if *workerMode && *workers > 0 {
		fatalf("-worker and -workers are mutually exclusive (-worker is the spawned side)")
	}
	if (*workerMode || *workers > 0) && *ckptDir == "" {
		fatalf("shard execution requires -checkpoint (the store the fleet shares)")
	}

	// The coordinator re-invokes this binary per worker with the identical
	// methodology flags, so the cells workers enumerate — and the keys they
	// file results under — are exactly the coordinator's.
	var workerArgs []string
	if *workers > 0 {
		perWorker := *parallel
		if perWorker == 0 {
			// Split the machine across the fleet instead of letting every
			// worker default to GOMAXPROCS.
			if perWorker = runtime.NumCPU() / *workers; perWorker < 1 {
				perWorker = 1
			}
		}
		workerArgs = []string{
			"-worker",
			"-figure", *figure,
			"-trials", strconv.Itoa(*trials),
			"-scale", strconv.FormatFloat(*scale, 'g', -1, 64),
			"-region", strconv.Itoa(*region),
			"-seed", strconv.FormatUint(*seed, 10),
			"-parallel", strconv.Itoa(perWorker),
			"-checkpoint", *ckptDir,
			"-lease-ttl", leaseTTL.String(),
			"-shard-attempts", strconv.Itoa(*shardAttempts),
			"-max-skew", maxSkew.String(),
			"-retries", strconv.Itoa(*retries),
		}
		// -owner is deliberately NOT forwarded: each worker must mint its
		// own host/pid/nonce identity or fast reclaim would misfire.
		if *faults != "" {
			workerArgs = append(workerArgs, "-faults", *faults)
		}
		if *watchdog != 0 {
			workerArgs = append(workerArgs, "-watchdog", watchdog.String())
		}
		if *audit {
			workerArgs = append(workerArgs, "-audit")
		}
		if *traceDir != "" {
			workerArgs = append(workerArgs, "-trace", *traceDir)
		}
		if *metricsInterval != 0 {
			workerArgs = append(workerArgs, "-metrics-interval", metricsInterval.String())
		}
		if *verbose {
			workerArgs = append(workerArgs, "-v")
		}
	}

	return runFigures(figureConfig{
		figure:          *figure,
		trials:          *trials,
		scale:           *scale,
		region:          *region,
		seed:            *seed,
		parallel:        *parallel,
		verbose:         *verbose,
		audit:           *audit,
		csvDir:          *csvDir,
		ckptDir:         *ckptDir,
		plan:            plan,
		watchdog:        sim.Duration(watchdog.Nanoseconds()),
		retries:         *retries,
		traceDir:        *traceDir,
		metricsInterval: sim.Duration(metricsInterval.Nanoseconds()),
		workers:         *workers,
		workerMode:      *workerMode,
		leaseTTL:        *leaseTTL,
		shardAttempts:   *shardAttempts,
		maxSkew:         *maxSkew,
		owner:           *owner,
		workerArgs:      workerArgs,
	})
}

type figureConfig struct {
	figure          string
	trials          int
	scale           float64
	region          int
	seed            uint64
	parallel        int
	verbose         bool
	audit           bool
	csvDir          string
	ckptDir         string
	plan            fault.Plan
	watchdog        sim.Duration
	retries         int
	traceDir        string
	metricsInterval sim.Duration

	workers       int
	workerMode    bool
	leaseTTL      time.Duration
	shardAttempts int
	maxSkew       time.Duration
	owner         string
	// workerArgs is the argv the coordinator spawns each -worker with.
	workerArgs []string
}

// shardDir is the lease/queue directory, colocated with the store so the
// whole coordination state lives (and is cleaned up) together.
func (c figureConfig) shardDir() string { return filepath.Join(c.ckptDir, "shard") }

func (c figureConfig) shardConfig(store *checkpoint.Store, counters *telemetry.CounterSet) shard.Config {
	var prog io.Writer
	if c.verbose {
		prog = os.Stderr
	}
	return shard.Config{
		Dir:      c.shardDir(),
		Store:    store,
		TTL:      c.leaseTTL,
		Attempts: c.shardAttempts,
		MaxSkew:  c.maxSkew,
		Counters: counters,
		Progress: prog,
	}
}

// figureFn resolves a figure or extension-experiment ID.
func figureFn(id string) (experiments.FigureFunc, bool) {
	if fn, ok := experiments.Figures[id]; ok {
		return fn, true
	}
	fn, ok := experiments.Extensions[id]
	return fn, ok
}

func knownFigures() string {
	return strings.Join(append(experiments.FigureIDs(), experiments.ExtensionIDs()...), ", ")
}

func runFigures(cfg figureConfig) int {
	if cfg.csvDir != "" && !cfg.workerMode {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	opts := experiments.Options{
		Trials:          cfg.trials,
		Scale:           cfg.scale,
		RegionPTEs:      cfg.region,
		Seed:            cfg.seed,
		Parallelism:     cfg.parallel,
		Audit:           cfg.audit,
		Fault:           cfg.plan,
		Watchdog:        cfg.watchdog,
		Retries:         cfg.retries,
		TraceDir:        cfg.traceDir,
		MetricsInterval: cfg.metricsInterval,
	}
	var store *checkpoint.Store
	if cfg.ckptDir != "" {
		var err error
		store, err = checkpoint.Open(cfg.ckptDir)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Checkpoint = store
		if cfg.verbose && store.Len() > 0 {
			fmt.Fprintf(os.Stderr, "pagebench: resuming with %d checkpointed series in %s\n", store.Len(), store.Dir())
		}
	}
	if cfg.verbose {
		opts.Progress = os.Stderr
	}

	var ids []string
	if cfg.figure == "all" {
		// "all" is the paper's evaluation: the twelve figures. Extension
		// experiments run only when named explicitly.
		ids = experiments.FigureIDs()
	} else {
		for _, id := range strings.Split(cfg.figure, ",") {
			id = strings.TrimSpace(id)
			if _, ok := figureFn(id); !ok {
				fmt.Fprintf(os.Stderr, "pagebench: unknown figure %q (known: %s)\n", id, knownFigures())
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	fns := make([]experiments.FigureFunc, len(ids))
	for i, id := range ids {
		fns[i], _ = figureFn(id)
	}

	if cfg.workerMode {
		return runShardWorker(cfg, opts, store, fns)
	}
	sharded := cfg.workers > 0
	if sharded {
		if code, ok := runShardCoordinator(cfg, opts, store, fns); !ok {
			return code
		}
		// The fleet resolved every cell; sweep the figures from the store,
		// failing quarantined cells through the veto instead of re-running
		// them (and instead of aborting the remaining figures).
		opts.Veto = shard.Veto(cfg.shardDir())
	}
	runner := experiments.NewRunner(opts)

	exit := 0
	start := time.Now()
	for _, id := range ids {
		figStart := time.Now()
		fn, _ := figureFn(id)
		res, err := fn(runner)
		if err != nil {
			if sharded {
				fmt.Fprintf(os.Stderr, "pagebench: %s failed: %v\n", id, err)
				exit = 1
				continue
			}
			fatalf("%s failed: %v", id, err)
		}
		fmt.Println(res.Render())
		if cfg.csvDir != "" {
			if c, ok := res.(experiments.CSVer); ok {
				path := filepath.Join(cfg.csvDir, id+".csv")
				if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					fatalf("write %s: %v", path, err)
				}
			}
		}
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(figStart).Round(time.Millisecond))
		}
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
	}
	return exit
}

// runShardWorker is the body of a spawned `-worker` process: enumerate
// the same cells from the same flags, join the on-disk queue, drain on
// SIGINT/SIGTERM, and exit 0 once the queue is resolved (or drained) —
// the coordinator treats any other exit as a crash and respawns.
func runShardWorker(cfg figureConfig, opts experiments.Options, store *checkpoint.Store, fns []experiments.FigureFunc) int {
	cells, err := experiments.CellsFor(opts, fns...)
	if err != nil {
		fatalf("%v", err)
	}
	counters := telemetry.NewCounterSet()
	q, err := shard.NewQueue(cfg.shardConfig(store, counters), cells)
	if err != nil {
		fatalf("%v", err)
	}
	var drain atomic.Bool
	hook := func() { drain.Store(true) }
	interruptHook.Store(&hook)
	if err := q.RunWorker(shard.WorkerConfig{
		Owner:  cfg.owner,
		Runner: experiments.NewRunner(opts),
		Drain:  &drain,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pagebench: worker: %v\n", err)
		return 1
	}
	if cfg.verbose {
		counters.WriteText(os.Stderr)
	}
	return 0
}

// runShardCoordinator supervises the worker fleet until every cell is
// terminal. ok=false means the figure sweep must not run (drained or
// unresolved) and code is the process exit code.
func runShardCoordinator(cfg figureConfig, opts experiments.Options, store *checkpoint.Store, fns []experiments.FigureFunc) (code int, ok bool) {
	cells, err := experiments.CellsFor(opts, fns...)
	if err != nil {
		fatalf("%v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	counters := telemetry.NewCounterSet()
	co := &shard.Coordinator{
		Cfg:     cfg.shardConfig(store, counters),
		Cells:   cells,
		Workers: cfg.workers,
		Spawn:   shard.CmdSpawner(exe, cfg.workerArgs, os.Stderr),
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "pagebench: sharding %d cells across %d workers (lease TTL %v)\n",
			len(cells), cfg.workers, cfg.leaseTTL)
	}

	var drained atomic.Bool
	hook := func() {
		drained.Store(true)
		fmt.Fprintln(os.Stderr, "pagebench: interrupted — draining workers (in-flight cells finish and checkpoint; resume with the same flags)")
		co.Drain()
	}
	interruptHook.Store(&hook)
	rep, err := co.Run()
	interruptHook.Store(nil)

	for _, p := range rep.Poisoned {
		fmt.Fprintf(os.Stderr, "pagebench: quarantined %s after %d attempt(s): %s\n", p.SeedKey, p.Attempts, p.Err)
		for _, a := range p.Artifacts {
			fmt.Fprintf(os.Stderr, "pagebench:   artifact: %s\n", a)
		}
	}
	if drained.Load() {
		fmt.Fprintf(os.Stderr, "pagebench: drained with %d/%d cells done (%d quarantined)\n",
			rep.Progress.Done, rep.Progress.Total, rep.Progress.Poisoned)
		return exitInterrupted, false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pagebench: %v\n", err)
		return 1, false
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "pagebench: shard run resolved: %d done, %d quarantined, %d worker restarts\n",
			rep.Progress.Done, rep.Progress.Poisoned, rep.Restarts)
		counters.WriteText(os.Stderr)
	}
	return 0, true
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pagebench: "+format+"\n", args...)
	os.Exit(1)
}
