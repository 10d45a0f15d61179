// Command benchmark measures the simulator end to end and layer by layer
// on three workloads, and checks every output it produces while doing so.
//
// Run it from the repository root through the wrapper, which builds it
// inside the checkout:
//
//	bash benchmark/run.sh --workload paper-matrix --seed 24301 --seconds 30 --trace 0
//
// A run sets the workload up several times (setup_s is the median), makes
// one warm pass that also fills a checkpoint store, then spends three
// quarters of --seconds on cold passes, which simulate every cell, and the
// rest on cached requests answered from the warm store by one closed-loop
// client. Passes and requests are timed part by part (cell, figure or
// sweep), each part followed by a reference handoff (handoff.go). A
// reported time is the sum over the parts of each part's median, scaled
// to the nominal reference, so neither a slow spell of the host inside a
// run nor a slow host across a run moves it much. It prints a metadata
// line, then one JSON result line. With --trace 1 the cold passes and
// cached requests run under a CPU profile with the policy probe
// installed, and the result carries the per-layer metrics; spans.json and
// cpu.pprof are written to <work>/trace/<workload>.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"mglrusim/internal/experiments"
	"mglrusim/internal/stats"
)

const (
	// defaultSeed is the seed the golden figures and pinned digests are
	// taken at (0x5EED).
	defaultSeed = 24301
	// concurrency is the fixed parallelism of every workload: concurrent
	// trials and server workers. It is not derived from the host, so a run
	// means the same work everywhere.
	concurrency = 2
	// Set-up repeats until it has taken setupBudget in total, within
	// [minSetupRounds, maxSetupRounds]; setup_s is the median round, so
	// sub-millisecond set-ups get enough rounds to be steady.
	minSetupRounds = 5
	maxSetupRounds = 501
	setupBudget    = time.Second
	// minColdPasses is the fewest cold passes a run makes: three, so that
	// the median of each cell's time leaves out one slow pass.
	minColdPasses = 3
	coldShare     = 0.75
)

type size struct {
	trials int
	scale  float64
}

// toySize shrinks every workload for the self-test.
var toySize = size{trials: 2, scale: 0.01}

// workloadDef is one benchmark input. figures is empty for the sweep
// server.
type workloadDef struct {
	name    string
	figures []string
	size    size
	// digest is the SHA-256 of the warm pass's output at the default seed
	// and full size. For the batch workloads it is also the digest of
	// pagebench's standard output for the same figures, trials and scale.
	digest string
}

// The workloads stress different layers, so that a change to one layer
// has a workload that exercises it and one that bypasses it:
//   - paper-matrix is `pagebench -figure all -trials 2 -scale 0.2
//     -parallel 2`, the golden file's size: ZRAM compression, engine
//     handoff and the Scan-All aging variants all do real work; the page
//     cache does none.
//   - pagecache-serve is the ext2+ext3 page-cache figures: Zipfian file
//     reads, dirty writeback, the flusher and an injected-fault file
//     device; ZRAM does none.
//   - sweep-server serves a sweep over HTTP; its cached requests run no
//     simulation at all and move only with the server, store and jobs.
var workloadDefs = []*workloadDef{
	{name: "paper-matrix", figures: experiments.FigureIDs(), size: size{trials: 2, scale: 0.2},
		digest: "6312cf4915e21879447490947392b22a584a9d29571385ede16bf86f981804f7"},
	{name: "pagecache-serve", figures: []string{"ext2", "ext3"}, size: size{trials: 2, scale: 1},
		digest: "c2d2f8f607be4ff45c01c8b277bbe40673ad8c9834f685f9760fc6a76a4b6a29"},
	{name: "sweep-server", size: size{trials: 1, scale: 0.2},
		digest: "59d5ec8c2dabc63119142c26050a760ef6a30a71801b4378b06cd0eb51e3b364"},
}

func lookup(name string) (*workloadDef, error) {
	var names []string
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch space: stores, server queues, trace output
	root     string // repository root: golden file, source-line count
	toy      bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-matrix, pagecache-serve or sweep-server")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time, split 3:1 between cold passes and cached requests")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a profiled, probed run instead of end-to-end ones")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	for _, f := range rep.Meta.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED %s\n", f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": rep.Meta}); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	if err := enc.Encode(rep.Result); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// instance is a set-up workload.
type instance interface {
	// warm makes the first pass, which also fills the store cached
	// requests are answered from.
	warm() (passOut, error)
	// cold makes one pass that simulates every cell.
	cold(tr *tracer, parent int) (passOut, error)
	// cached answers one request from the warm store, checking it
	// against the warm pass. It returns the host times of the request's
	// parts, in the same order on every request.
	cached(tr *tracer, parent int) ([]part, error)
	cellCount() int
	close()
}

type passOut struct {
	out    []byte // what a user of the pass sees: figures, or artifacts
	counts tally
	// parts are the host times of the pass's parts, in the same order on
	// every pass: each cell, then rendering; or the whole sweep.
	parts []part
}

func (p passOut) elapsed() time.Duration {
	var t time.Duration
	for _, x := range p.parts {
		t += x.wall
	}
	return t
}

type setupTiming struct{ total, enumerate, make time.Duration }

var errOutputMismatch = errors.New("output differs from the warm pass")

func setupWorkload(def *workloadDef, sz size, seed uint64, dir string) (instance, setupTiming, error) {
	if def.figures == nil {
		return setupSweep(sz, seed, dir)
	}
	return setupBatch(def, sz, seed, dir)
}

// tracer bundles what a traced pass records. A nil *tracer records
// nothing.
type tracer struct {
	spans *spanLog
	probe *probe
}

func (t *tracer) begin(name, req string, parent, tid int) int {
	if t == nil {
		return 0
	}
	return t.spans.begin(name, req, parent, tid)
}

func (t *tracer) finish(h int) {
	if t != nil {
		t.spans.finish(h)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricValue struct {
	name, unit string
	value      float64
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type meta struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	// Samples is the number of values behind each median or percentile.
	Samples map[string]int `json:"samples"`
	Digest  string         `json:"digest"`
	// Unscaled are the end-to-end times before scaling to the nominal
	// reference handoff, and RefHandoffUS is the reference's median time.
	Unscaled     map[string]float64 `json:"unscaled,omitempty"`
	RefHandoffUS float64            `json:"ref_handoff_us,omitempty"`
	TraceDir     string             `json:"trace_dir,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
}

type report struct {
	Result result
	Meta   meta
}

// tracker counts attempted and failed operations.
type tracker struct {
	mu                sync.Mutex
	attempted, failed int
	failures          []string
}

// record notes one operation and reports whether it succeeded.
func (t *tracker) record(what string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

func run(cfg config) (*report, error) {
	def, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	sz, budget, minCold := def.size, setupBudget, minColdPasses
	if cfg.toy {
		// The self-test checks what a run reports, not how steady it is.
		sz, budget, minCold = toySize, 0, 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{Meta: meta{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace,
		Host: fingerprint(cfg.root), Samples: map[string]int{}}}
	tk := &tracker{}

	var (
		inst       instance
		setups     []setupTiming
		setupTotal time.Duration
	)
	for i := 0; i < minSetupRounds || setupTotal < budget && i < maxSetupRounds; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		in, t, err := setupWorkload(def, sz, cfg.seed, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		inst = in
		setups = append(setups, t)
		setupTotal += t.total
	}
	defer inst.close()
	rep.Meta.Samples["setup_s"] = len(setups)

	runtime.GC()
	warm, warmErr := inst.warm()
	if tk.record("warm pass", warmErr) {
		sum := sha256.Sum256(warm.out)
		rep.Meta.Digest = hex.EncodeToString(sum[:])
		if cfg.seed == defaultSeed && !cfg.toy {
			if rep.Meta.Digest != def.digest {
				tk.record("pinned digest", fmt.Errorf("output SHA-256 %s, pinned %s", rep.Meta.Digest, def.digest))
			}
			if def.name == "paper-matrix" {
				tk.record("golden figures", checkGolden(cfg.root, warm.out))
			}
		}
	}

	ph := phases{cold: time.Duration(cfg.seconds * coldShare * float64(time.Second)), minCold: minCold}
	ph.cached = time.Duration(cfg.seconds*float64(time.Second)) - ph.cold
	var metrics []metricValue
	switch {
	case warmErr != nil && cfg.trace:
		metrics = perLayer(layerInputs{setups: setups})
	case warmErr != nil:
		metrics = endToEnd(setups, nil, warm.counts, nil, 0, part.scaled)
	case cfg.trace:
		traceDir := filepath.Join(cfg.work, "trace", def.name)
		if metrics, err = tracedRun(inst, warm, ph, setups, traceDir, tk, rep.Meta.Samples); err != nil {
			return nil, err
		}
		rep.Meta.TraceDir = traceDir
	default:
		cold := coldPhase(inst, warm, ph, nil, tk)
		// The peak is read before the cached phase: it is the memory that
		// set-up, the warm pass and the cold passes needed.
		rss, err := peakRSSMiB()
		tk.record("peak rss", err)
		cached := cachedPhase(inst, ph.cached, nil, tk)
		rep.Meta.Samples["cold_pass_s"] = len(cold)
		rep.Meta.Samples["cached_ms"] = len(cached)
		metrics = endToEnd(setups, cold, warm.counts, cached, rss, part.scaled)
		rep.Meta.Unscaled = map[string]float64{
			"cold_pass_s": partwiseMedian(cold, part.raw).Seconds(),
			"cached_ms":   ms(partwiseMedian(cached, part.raw)),
		}
		rep.Meta.RefHandoffUS = us(medianRef(slices.Concat(cold, cached)))
	}

	rep.Result = result{
		Correct:   tk.failed == 0,
		Attempted: tk.attempted,
		Failed:    tk.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range metrics {
		rep.Result.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	rep.Meta.Failures = tk.failures
	return rep, nil
}

// checkGolden compares the first two figures of paper-matrix's output,
// which has the golden test's size and seed, with the checked-in golden
// file. The file is only read.
func checkGolden(root string, out []byte) error {
	want, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden_figures.txt"))
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(out, want) {
		return fmt.Errorf("figures 1 and 2 differ from the golden file")
	}
	return nil
}

func sameOutput(got, want passOut) error {
	if !bytes.Equal(got.out, want.out) {
		return errOutputMismatch
	}
	if got.counts != want.counts {
		return fmt.Errorf("simulated counts differ from the warm pass")
	}
	return nil
}

// phases is how long a run spends on cold passes and on cached requests,
// and the fewest cold passes it makes.
type phases struct {
	cold, cached time.Duration
	minCold      int
}

// coldPhase makes cold passes, each checked against the warm pass, and
// returns the part times of those that checked clean. It makes at least
// ph.minCold, then another while one of median length still ends within
// ph.cold.
func coldPhase(inst instance, warm passOut, ph phases, tr *tracer, tk *tracker) [][]part {
	start := time.Now()
	var parts [][]part
	var lengths []time.Duration
	for n := 0; n < ph.minCold || len(lengths) > 0 && time.Since(start)+quantile(lengths, 0.5) <= ph.cold; n++ {
		runtime.GC()
		h := tr.begin("pass", fmt.Sprintf("pass-%d", n), 0, 0)
		out, err := inst.cold(tr, h)
		tr.finish(h)
		if err == nil {
			err = sameOutput(out, warm)
		}
		if tk.record(fmt.Sprintf("cold pass %d", n), err) {
			parts = append(parts, out.parts)
			lengths = append(lengths, out.elapsed())
		}
	}
	return parts
}

// cachedPhase makes cached requests from one closed-loop client until
// window has passed, at least one. It returns the part times of the
// requests that checked clean. One client leaves the reference handoff
// after each part uncontended.
func cachedPhase(inst instance, window time.Duration, tr *tracer, tk *tracker) [][]part {
	runtime.GC()
	deadline := time.Now().Add(window)
	var parts [][]part
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		h := tr.begin("cached", fmt.Sprintf("request-%d", n), 0, 1)
		p, err := inst.cached(tr, h)
		tr.finish(h)
		if tk.record(fmt.Sprintf("cached request %d", n), err) {
			parts = append(parts, p)
		}
	}
	return parts
}

// partwiseMedian sums, over the parts, each part's median time across
// the samples, taking each time with of; every sample lists the same parts
// in the same order. A slow spell of the host that covers a few parts of
// one sample does not move it, while it moves that sample's total.
func partwiseMedian(samples [][]part, of func(part) time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var total time.Duration
	col := make([]time.Duration, len(samples))
	for i := range samples[0] {
		for k, s := range samples {
			col[k] = of(s[i])
		}
		total += quantile(col, 0.5)
	}
	return total
}

// endToEnd derives the end-to-end metrics. Every cold pass simulates what
// the warm pass did, so its counts give the accesses of one pass.
// Pass and request times are taken with of: scaled to the nominal
// reference handoff, or raw.
func endToEnd(setups []setupTiming, cold [][]part, perPass tally, cached [][]part, rssMiB float64, of func(part) time.Duration) []metricValue {
	var total []time.Duration
	for _, s := range setups {
		total = append(total, s.total)
	}
	pass := partwiseMedian(cold, of).Seconds()
	return []metricValue{
		{"cold_pass_s", "s", pass},
		{"sim_maccess_per_s", "Maccess/s", ratio(float64(perPass.accesses)/1e6, pass)},
		{"cached_ms", "ms", ms(partwiseMedian(cached, of))},
		{"setup_s", "s", quantile(total, 0.5).Seconds()},
		{"peak_rss_mb", "MiB", rssMiB},
	}
}

// tracedRun measures one untraced reference pass, then repeats the
// untraced run's cold and cached phases with the CPU profiler, spans and
// the policy probe on, and derives the per-layer metrics.
func tracedRun(inst instance, warm passOut, ph phases, setups []setupTiming,
	traceDir string, tk *tracker, samples map[string]int) ([]metricValue, error) {
	in := layerInputs{setups: setups, cells: inst.cellCount()}

	runtime.GC()
	before := readRuntimeCounters()
	ref, err := inst.cold(nil, 0)
	in.runtime = readRuntimeCounters().sub(before)
	if err == nil {
		err = sameOutput(ref, warm)
	}
	if !tk.record("untraced reference pass", err) {
		return perLayer(in), nil
	}
	in.ref = ref

	tr := &tracer{spans: newSpanLog(), probe: &probe{}}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	in.traced = coldPhase(inst, warm, ph, tr, tk)
	cachedPhase(inst, ph.cached, tr, tk)
	pprof.StopCPUProfile()

	p, err := decodeProfile(bytes.NewReader(prof.Bytes()))
	if err != nil {
		return nil, err
	}
	in.cpu = layerReport(p)
	in.tr = tr

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	if err := tr.spans.writeChrome(filepath.Join(traceDir, "spans.json")); err != nil {
		return nil, err
	}

	samples["traced_passes"] = len(in.traced)
	samples["cpu_profile"] = in.cpu.samples
	for _, name := range []string{"cell", "render", "cached", "submit", "wait", "result"} {
		samples[name] = len(tr.spans.durations(name))
	}
	samples["policy.reclaim"] = len(tr.probe.reclaimWall)
	samples["policy.age"] = len(tr.probe.ageWall)
	return perLayer(in), nil
}

// layerInputs is what the per-layer metrics are computed from. Parts a
// workload does not exercise stay empty and report 0.
type layerInputs struct {
	setups  []setupTiming
	cells   int
	ref     passOut         // the untraced reference pass
	runtime runtimeCounters // allocation and GC counters over ref
	traced  [][]part        // part times of the traced cold passes
	cpu     cpuReport
	tr      *tracer
}

func perLayer(in layerInputs) []metricValue {
	var out []metricValue
	for _, l := range layers {
		out = append(out, metricValue{l + ".cpu_share", "fraction", in.cpu.share[l]})
	}

	var enumerate, construct []time.Duration
	for _, s := range in.setups {
		enumerate = append(enumerate, s.enumerate)
		construct = append(construct, s.make)
	}
	spans := func(name string) []time.Duration { return nil }
	pb := &probe{}
	if in.tr != nil {
		spans, pb = in.tr.spans.durations, in.tr.probe
	}
	passes := float64(len(in.traced))
	out = append(out,
		metricValue{"policy.self_s", "s", ratio(in.cpu.labeled["policy"], passes)},
		metricValue{"policy.evict_s", "s", ratio(in.cpu.labeled["evict"], passes)},
		metricValue{"policy.reclaim_us_p50", "us", us(quantile(pb.reclaimWall, 0.5))},
		metricValue{"policy.reclaim_us_p99", "us", us(quantile(pb.reclaimWall, 0.99))},
		metricValue{"policy.age_us_p50", "us", us(quantile(pb.ageWall, 0.5))},
		metricValue{"policy.age_us_p99", "us", us(quantile(pb.ageWall, 0.99))},
		metricValue{"policy.pagein_calls", "count", ratio(float64(pb.pageins.Load()), passes)},
		metricValue{"policy.reclaim_calls", "count", ratio(float64(pb.reclaims.Load()), passes)},
		metricValue{"policy.age_calls", "count", ratio(float64(pb.ages.Load()), passes)},
		metricValue{"experiments.cells", "count", float64(in.cells)},
		metricValue{"experiments.cell_ms_p50", "ms", ms(quantile(spans("cell"), 0.5))},
		metricValue{"experiments.cell_ms_p90", "ms", ms(quantile(spans("cell"), 0.9))},
		metricValue{"experiments.enumerate_s", "s", quantile(enumerate, 0.5).Seconds()},
		metricValue{"experiments.render_s", "s", quantile(spans("render"), 0.5).Seconds()},
		metricValue{"workload.make_s", "s", quantile(construct, 0.5).Seconds()},
	)
	for _, name := range []string{"submit", "wait", "result"} {
		out = append(out,
			metricValue{"server." + name + "_ms_p50", "ms", ms(quantile(spans(name), 0.5))},
			metricValue{"server." + name + "_ms_p90", "ms", ms(quantile(spans(name), 0.9))})
	}
	requests := len(spans("submit")) + len(spans("wait")) + len(spans("result"))
	out = append(out, metricValue{"server.requests", "count", float64(requests)})

	out = append(out, in.ref.counts.countMetrics()...)
	kaccess := float64(in.ref.counts.accesses) / 1e3
	out = append(out,
		metricValue{"runtime.allocs_per_kaccess", "allocs/kaccess", ratio(in.runtime.allocs, kaccess)},
		metricValue{"runtime.alloc_bytes_per_kaccess", "B/kaccess", ratio(in.runtime.allocBytes, kaccess)},
		metricValue{"runtime.gc_cpu_share", "fraction", ratio(in.runtime.gcCPU, in.runtime.totalCPU)},
		metricValue{"benchmark.trace_overhead", "ratio", ratio(partwiseMedian(in.traced, part.scaled).Seconds(), partwiseMedian([][]part{in.ref.parts}, part.scaled).Seconds())},
		metricValue{"benchmark.ref_handoff_us", "us", us(medianRef(in.traced))},
	)
	return out
}

// quantile is stats.Percentile over durations (q in [0,1]); 0 when ds is
// empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(stats.Percentile(xs, q*100))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
