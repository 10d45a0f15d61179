package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/workload"
)

// batch is a figure-family workload, run as `pagebench -figure` runs it:
// one runner simulates the series one after another, each with its trials
// in parallel, and the figures are rendered from the runner's cache.
type batch struct {
	opts  experiments.Options
	fns   []experiments.FigureFunc
	cells []experiments.CellSpec
	// specs are the cells' workloads, built once at set-up. Workloads are
	// stateless across trials (the Runner already shares one instance per
	// name), so every pass reuses them and construction stays in set-up.
	specs map[string]experiments.WorkloadSpec
	dir   string

	store *checkpoint.Store // filled by the warm pass
	ref   []byte            // the warm pass's output
}

func setupBatch(def *workloadDef, sz size, seed uint64, dir string) (*batch, setupTiming, error) {
	start := time.Now()
	b := &batch{
		opts:  experiments.Options{Trials: sz.trials, Scale: sz.scale, Seed: seed, Parallelism: concurrency},
		specs: map[string]experiments.WorkloadSpec{},
		dir:   dir,
	}
	for _, id := range def.figures {
		fn, ok := experiments.Figures[id]
		if !ok {
			fn, ok = experiments.Extensions[id]
		}
		if !ok {
			return nil, setupTiming{}, fmt.Errorf("unknown figure %q", id)
		}
		b.fns = append(b.fns, fn)
	}
	var err error
	if b.cells, err = experiments.CellsFor(b.opts, b.fns...); err != nil {
		return nil, setupTiming{}, err
	}
	enumerated := time.Now()
	for _, c := range b.cells {
		if _, ok := b.specs[c.Workload]; ok {
			continue
		}
		spec := experiments.WorkloadByName(c.Workload, b.opts.Scale)
		wl := spec.Make()
		spec.Make = func() workload.Workload { return wl }
		b.specs[c.Workload] = spec
	}
	made := time.Now()
	return b, setupTiming{total: made.Sub(start), enumerate: enumerated.Sub(start), make: made.Sub(enumerated)}, nil
}

func (b *batch) cellCount() int { return len(b.cells) }

func (b *batch) close() {}

func (b *batch) warm() (passOut, error) {
	store, err := checkpoint.Open(filepath.Join(b.dir, "store"))
	if err != nil {
		return passOut{}, err
	}
	out, err := b.pass(store, nil, 0)
	if err != nil {
		return passOut{}, err
	}
	b.store, b.ref = store, out.out
	return out, nil
}

func (b *batch) cold(tr *tracer, parent int) (passOut, error) { return b.pass(nil, tr, parent) }

// pass simulates every cell on a fresh runner (publishing to store when
// it is set), then renders the figures from the runner's cache.
func (b *batch) pass(store *checkpoint.Store, tr *tracer, parent int) (passOut, error) {
	prog := &progressCounter{}
	opts := b.opts
	opts.Checkpoint = store
	opts.Progress = prog
	r := experiments.NewRunner(opts)

	var counts tally
	parts := make([]part, 0, len(b.cells)+1)
	for _, c := range b.cells {
		start := time.Now()
		s, err := b.runCell(r, c, tr, parent)
		if err != nil {
			return passOut{}, err
		}
		parts = append(parts, endPart(start))
		for _, m := range s.Trials {
			counts.add(countsOf(m))
		}
	}
	// The runner reports one progress line per series it runs or resumes:
	// one per enumerated cell, and none more while rendering, or the
	// enumeration and the figures disagree about the cell set.
	if n := prog.count().lines; n != len(b.cells) {
		return passOut{}, fmt.Errorf("ran %d series for %d enumerated cells", n, len(b.cells))
	}
	h := tr.begin("render", "", parent, 0)
	start := time.Now()
	out, _, err := render(r, b.fns)
	tr.finish(h)
	if err != nil {
		return passOut{}, err
	}
	parts = append(parts, endPart(start))
	if n := prog.count().lines; n != len(b.cells) {
		return passOut{}, fmt.Errorf("rendering ran %d series the cell pass did not", n-len(b.cells))
	}
	return passOut{out: out, counts: counts, parts: parts}, nil
}

func (b *batch) runCell(r *experiments.Runner, c experiments.CellSpec, tr *tracer, parent int) (*experiments.Series, error) {
	w := b.specs[c.Workload]
	p := experiments.PolicyByName(c.Policy)
	if tr == nil {
		return r.Run(w, p, c.System)
	}
	req := checkpoint.KeyHash(c.Key)[:16]
	h := tr.begin("cell", req, parent, 0)
	// Trials run concurrently; each gets its own span, numbered in the
	// order the trials finish.
	var trials atomic.Int32
	p = tr.probe.wrap(p, func(start, end time.Time) {
		n := int(trials.Add(1))
		tr.spans.add("trial", fmt.Sprintf("%s/t%d", req, n-1), h, n, start, end)
	})
	s, err := r.Run(w, p, c.System)
	tr.finish(h)
	return s, err
}

// cached re-renders the figures on a fresh runner over the warm store, the
// path `pagebench -checkpoint` takes when resuming a finished run: every
// series must come from the store and nothing may be simulated. Its parts
// are the figures.
func (b *batch) cached(tr *tracer, parent int) ([]part, error) {
	prog := &progressCounter{}
	opts := b.opts
	opts.Checkpoint = b.store
	opts.Progress = prog
	out, figs, err := render(experiments.NewRunner(opts), b.fns)
	if err != nil {
		return nil, err
	}
	if c := prog.count(); c.resumed != len(b.cells) || c.lines != len(b.cells) {
		return nil, fmt.Errorf("cached render resumed %d of %d series and ran %d", c.resumed, len(b.cells), c.lines-c.resumed)
	}
	if !bytes.Equal(out, b.ref) {
		return nil, errOutputMismatch
	}
	return figs, nil
}

// render produces the figures' text exactly as `pagebench -figure` prints
// it, and each figure as a part.
func render(r *experiments.Runner, fns []experiments.FigureFunc) ([]byte, []part, error) {
	var buf bytes.Buffer
	parts := make([]part, 0, len(fns))
	for _, fn := range fns {
		start := time.Now()
		res, err := fn(r)
		if err != nil {
			return nil, nil, err
		}
		buf.WriteString(res.Render())
		buf.WriteByte('\n')
		parts = append(parts, endPart(start))
	}
	return buf.Bytes(), parts, nil
}

// progressCounter counts the runner's per-series progress lines.
type progressCounter struct {
	mu sync.Mutex
	c  progressCount
}

type progressCount struct{ lines, resumed int }

func (p *progressCounter) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.c.lines += bytes.Count(b, []byte("\n"))
	p.c.resumed += bytes.Count(b, []byte("resumed from checkpoint"))
	p.mu.Unlock()
	return len(b), nil
}

func (p *progressCounter) count() progressCount {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c
}
