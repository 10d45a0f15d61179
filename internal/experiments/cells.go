package experiments

import (
	"fmt"
	"sort"
	"sync"

	"mglrusim/internal/core"
	"mglrusim/internal/stats"
)

// CellSpec identifies one (workload, policy, system) series — the unit of
// work the shard executor schedules. Key is the runner's full cache key,
// which is also the checkpoint-store identity the finished series is
// filed under; SeedKey is the narrower human-readable identity trial
// seeds derive from. System is the post-fold configuration (runner-wide
// audit/fault/watchdog options already applied), so re-running the cell
// through any Runner with compatible options reproduces the same Key.
// Cost is the bin-packing estimate from estimateCost's coarse cost model.
type CellSpec struct {
	Workload string
	Policy   string
	System   core.SystemConfig
	SeedKey  string
	Key      string
	Cost     float64
}

// cellCollector accumulates the distinct cells an enumeration-mode runner
// observes.
type cellCollector struct {
	mu    sync.Mutex
	seen  map[string]bool
	cells []CellSpec
}

func newCellCollector() *cellCollector {
	return &cellCollector{seen: map[string]bool{}}
}

func (c *cellCollector) add(cell CellSpec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[cell.Key] {
		return
	}
	c.seen[cell.Key] = true
	c.cells = append(c.cells, cell)
}

// syntheticSeries stands in for an executed series during enumeration:
// zero-valued trials with live (empty) recorders, enough for figure code
// to compute its (all-zero) statistics without executing — or even
// constructing — anything.
func syntheticSeries(w WorkloadSpec, p PolicySpec, sys core.SystemConfig, trials int) *Series {
	s := &Series{Workload: w.Name, Policy: p.Name, System: sys,
		Trials: make([]core.Metrics, trials)}
	for i := range s.Trials {
		s.Trials[i].ReadLat = stats.NewLatencyRecorder(0)
		s.Trials[i].WriteLat = stats.NewLatencyRecorder(0)
	}
	return s
}

// SortCells orders cells for claim scanning: estimated cost descending
// (longest-processing-time-first, the classic greedy bin-packing order,
// so the most expensive series start first and stragglers are short),
// with key ascending as the deterministic tiebreak every process agrees
// on.
func SortCells(cells []CellSpec) {
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Cost != cells[j].Cost {
			return cells[i].Cost > cells[j].Cost
		}
		return cells[i].Key < cells[j].Key
	})
}

// CellsFor enumerates, without executing a single trial, every distinct
// series the given figure functions would run under opts, returned in
// claim order (SortCells). Enumeration runs the real figure code against
// a collector-mode runner, so the returned set is exactly the execution
// set — there is no second source of truth to drift from the figures.
func CellsFor(opts Options, fns ...FigureFunc) ([]CellSpec, error) {
	opts.Checkpoint, opts.Progress, opts.TraceDir, opts.Veto = nil, nil, "", nil
	r := NewRunner(opts)
	r.collect = newCellCollector()
	for _, fn := range fns {
		if _, err := fn(r); err != nil {
			return nil, fmt.Errorf("experiments: enumerate cells: %w", err)
		}
	}
	cells := r.collect.cells
	SortCells(cells)
	return cells, nil
}

// MatrixCells enumerates the cells RunMatrix(ws, ps, sys) would execute
// under this runner's options, in claim order.
func (r *Runner) MatrixCells(ws []WorkloadSpec, ps []PolicySpec, sys core.SystemConfig) []CellSpec {
	opts := r.opts
	opts.Checkpoint, opts.Progress, opts.TraceDir, opts.Veto = nil, nil, "", nil
	er := NewRunner(opts)
	er.collect = newCellCollector()
	er.RunMatrix(ws, ps, sys) // collect mode cannot fail: nothing executes
	cells := er.collect.cells
	SortCells(cells)
	return cells
}
