// Package pagerank models PageRank from the GAP benchmark suite, the
// paper's graph-processing workload: iterations of parallelized sparse
// matrix-vector multiplication over a power-law graph, with a barrier at
// the end of every iteration.
//
// The properties the paper's analysis depends on (§V-B) are preserved:
// per-thread work varies with the degree of owned vertices, so iteration
// barriers wait on hub-owning stragglers; neighbour-score reads are
// irregular accesses across the whole rank array; and the edge array is
// streamed sequentially. This is why PageRank's runtime decorrelates from
// its total fault count — a few critical faults on the straggler's pages
// matter more than the aggregate rate.
package pagerank

import (
	"mglrusim/internal/graph"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

// Config sizes the workload.
type Config struct {
	// Graph parameterizes the synthetic power-law graph.
	Graph graph.Config
	// Iterations of PageRank.
	Iterations int
	// Threads is the compute parallelism (the paper uses 12).
	Threads int
	// ScoresPerPage is how many vertex scores share one (scaled) page.
	ScoresPerPage int
	// RowPtrPerPage and EdgesPerPage control index/edge array density.
	RowPtrPerPage, EdgesPerPage int
	// EdgeCPU is compute per edge; VertexCPU per vertex.
	EdgeCPU, VertexCPU sim.Duration
	// GraphSeed fixes the generated graph across trials.
	GraphSeed uint64
	// RegionPTEs is the page-table region fanout.
	RegionPTEs int
}

// DefaultConfig returns the calibrated scaled-down configuration.
func DefaultConfig() Config {
	return Config{
		Graph:         graph.Config{Vertices: 1 << 14, AvgDegree: 12, Alpha: 0.85},
		Iterations:    6,
		Threads:       12,
		ScoresPerPage: 64,
		RowPtrPerPage: 64,
		EdgesPerPage:  64,
		EdgeCPU:       12 * sim.Microsecond,
		VertexCPU:     40 * sim.Microsecond,
		GraphSeed:     0xC0FFEE,
		RegionPTEs:    workload.DefaultRegionPTEs,
	}
}

// PageRank is the workload.
type PageRank struct {
	*workload.AddrSpace

	cfg Config
	g   *graph.CSR

	prev, next, rowptr, col workload.Segment
}

// New generates the graph and lays out the address space.
func New(cfg Config) *PageRank {
	if cfg.Threads <= 0 || cfg.Iterations <= 0 {
		panic("pagerank: invalid config")
	}
	g := graph.Generate(cfg.Graph, sim.NewRNG(cfg.GraphSeed))
	w := &PageRank{cfg: cfg, g: g, AddrSpace: workload.NewAddrSpace(cfg.RegionPTEs)}
	scorePages := (g.N + cfg.ScoresPerPage - 1) / cfg.ScoresPerPage
	rowPages := (g.N + 1 + cfg.RowPtrPerPage - 1) / cfg.RowPtrPerPage
	colPages := (g.Edges() + cfg.EdgesPerPage - 1) / cfg.EdgesPerPage
	w.prev = w.Add("rank-prev", scorePages, false, zram.ClassZeroHeavy)
	w.next = w.Add("rank-next", scorePages, false, zram.ClassZeroHeavy)
	w.rowptr = w.Add("rowptr", rowPages, false, zram.ClassStructured)
	w.col = w.Add("col", colPages, false, zram.ClassStructured)
	return w
}

// Name implements workload.Workload.
func (w *PageRank) Name() string { return "pagerank" }

// Graph exposes the generated graph (for tests and tools).
func (w *PageRank) Graph() *graph.CSR { return w.g }

// vertexRange is a [from, to) span of vertex IDs.
type vertexRange struct{ from, to int }

// chunksPerThread is the dynamic-scheduling task granularity: each
// iteration's vertex space is split into this many chunks per thread and
// dealt from a shuffled deck, as OpenMP dynamic scheduling does in GAP.
// Which thread owns the hubs therefore varies per execution and per
// iteration — the straggler identity is a runtime accident, which is why
// PageRank's runtime decorrelates from its aggregate fault count.
const chunksPerThread = 4

// Threads implements workload.Workload. Per iteration, vertex chunks are
// dealt dynamically to threads; the degree mass each thread receives
// varies, producing barrier stragglers.
func (w *PageRank) Threads(plan, trial *sim.RNG) []workload.Stream {
	n := w.cfg.Threads
	// assignments[iter][tid] is the thread's vertex ranges that iteration.
	assignments := make([][][]vertexRange, w.cfg.Iterations)
	for it := range assignments {
		pieces := n * chunksPerThread
		if pieces > w.g.N {
			pieces = w.g.N
		}
		chunks := make([]vertexRange, pieces)
		for i := range chunks {
			chunks[i] = vertexRange{from: w.g.N * i / pieces, to: w.g.N * (i + 1) / pieces}
		}
		trial.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		assignments[it] = make([][]vertexRange, n)
		for i, c := range chunks {
			assignments[it][i%n] = append(assignments[it][i%n], c)
		}
	}
	streams := make([]workload.Stream, n)
	for tid := 0; tid < n; tid++ {
		perIter := make([][]vertexRange, w.cfg.Iterations)
		for it := range perIter {
			perIter[it] = assignments[it][tid]
		}
		streams[tid] = &stream{w: w, ranges: perIter, lastCol: -1}
	}
	return streams
}

// stream emits one thread's accesses across all iterations.
type stream struct {
	w      *PageRank
	ranges [][]vertexRange // per iteration

	iter      int
	ri        int   // range index within the iteration
	v         int   // current vertex (absolute ID)
	vset      bool  // v initialized for the current range
	e         int64 // current edge index within v
	started   bool  // emitted this vertex's rowptr access yet
	lastCol   pagetable.VPN
	atBarrier bool
}

// scorePage maps a vertex to its rank-array page within seg.
func (s *stream) scorePage(seg workload.Segment, v int) pagetable.VPN {
	return seg.Page(v / s.w.cfg.ScoresPerPage)
}

// Next implements workload.Stream. Per vertex: read its rowptr page,
// write its next-rank page, then stream col pages while reading the
// prev-rank page of every neighbour.
func (s *stream) Next(op *workload.Op) bool {
	w := s.w
	for {
		if s.iter >= w.cfg.Iterations {
			return false
		}
		ranges := s.ranges[s.iter]
		// Advance to the next non-exhausted range.
		for s.ri < len(ranges) {
			if !s.vset {
				s.v = ranges[s.ri].from
				s.vset = true
			}
			if s.v < ranges[s.ri].to {
				break
			}
			s.ri++
			s.vset = false
		}
		if s.ri >= len(ranges) {
			if !s.atBarrier {
				s.atBarrier = true
				*op = workload.Op{Kind: workload.OpBarrier}
				return true
			}
			s.atBarrier = false
			s.iter++
			s.ri = 0
			s.vset = false
			s.started = false
			s.lastCol = -1
			continue
		}
		if !s.started {
			s.started = true
			s.e = w.g.RowPtr[s.v]
			// Row pointer read + next-rank write for this vertex.
			*op = workload.Op{
				Kind:  workload.OpAccess,
				VPN:   w.rowptr.Page(s.v / w.cfg.RowPtrPerPage),
				CPU:   w.cfg.VertexCPU,
				Write: false,
			}
			return true
		}
		// Rank arrays swap roles every iteration, as real PageRank does.
		prevSeg, nextSeg := w.prev, w.next
		if s.iter%2 == 1 {
			prevSeg, nextSeg = nextSeg, prevSeg
		}
		if s.e >= w.g.RowPtr[s.v+1] {
			// Vertex done: write its next-rank entry, advance.
			vpn := s.scorePage(nextSeg, s.v)
			s.v++
			s.started = false
			*op = workload.Op{Kind: workload.OpAccess, VPN: vpn, Write: true, CPU: w.cfg.VertexCPU}
			return true
		}
		// Stream the col page (emit only on page change), then the
		// neighbour's prev-rank page.
		colPage := w.col.Page(int(s.e) / w.cfg.EdgesPerPage)
		if colPage != s.lastCol {
			s.lastCol = colPage
			*op = workload.Op{Kind: workload.OpAccess, VPN: colPage, CPU: w.cfg.EdgeCPU}
			return true
		}
		u := int(w.g.Col[s.e])
		s.e++
		*op = workload.Op{Kind: workload.OpAccess, VPN: s.scorePage(prevSeg, u), CPU: w.cfg.EdgeCPU}
		return true
	}
}

var _ workload.Workload = (*PageRank)(nil)
