// Package workload defines how benchmarks drive the simulated memory
// system: each workload lays out a virtual address space and produces one
// operation stream per thread. Streams are lazy generators, so multi-
// million-access executions cost no materialized trace memory.
//
// The three workload families the paper uses live in subpackages:
// tpch (data warehousing), pagerank (graph processing), and ycsb
// (key-value serving). They are modeled at the page-access level with the
// structural properties the paper's analysis leans on — staging and
// balance for TPC-H, degree-skewed stragglers for PageRank, zipfian
// request skew for YCSB.
package workload

import (
	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/zram"
)

// OpKind discriminates operations in a thread's stream.
type OpKind uint8

const (
	// OpAccess touches one page (read or write) and performs CPU work.
	OpAccess OpKind = iota
	// OpCompute performs CPU work without touching memory.
	OpCompute
	// OpBarrier synchronizes all threads of the workload.
	OpBarrier
	// OpReqStart begins a timed request (YCSB latency capture).
	OpReqStart
	// OpReqEnd completes the current timed request.
	OpReqEnd
)

// ReqClass labels timed requests for separate tail accounting.
type ReqClass uint8

const (
	// ReqRead is a read-type request (GET).
	ReqRead ReqClass = iota
	// ReqWrite is a write-type request (UPDATE/INSERT).
	ReqWrite
)

// Op is one operation in a thread program.
type Op struct {
	Kind  OpKind
	VPN   pagetable.VPN // OpAccess
	Write bool          // OpAccess
	CPU   sim.Duration  // OpAccess and OpCompute: attached CPU work
	Class ReqClass      // OpReqStart
}

// Stream lazily yields a thread's operations. Next fills op and reports
// whether an operation was produced; false means the thread is done.
type Stream interface {
	Next(op *Op) bool
}

// Workload describes one benchmark. An embedded *AddrSpace supplies every
// method but Name and Threads.
type Workload interface {
	// Name identifies the workload ("tpch", "pagerank", "ycsb-a", ...).
	Name() string
	// TableRegions is how many PMD regions the address space spans
	// (including holes).
	TableRegions() int
	// RegionPTEs is the page-table region fanout the workload was laid
	// out with.
	RegionPTEs() int
	// Layout maps the workload's segments into t. Unmapped gaps remain
	// holes that naive linear scans waste time skipping.
	Layout(t *pagetable.Table)
	// FootprintPages is the number of mapped pages (the paper's
	// "memory footprint" that capacity ratios are computed against).
	FootprintPages() int
	// Threads builds one op stream per thread for a single execution.
	// plan is the workload RNG, fixed per configuration, so every trial
	// executes the identical work (queries, graphs, key popularity).
	// trial varies per execution and drives only runtime scheduling
	// decisions — dynamic task-to-thread assignment (Spark task
	// scheduling, OpenMP dynamic chunks, connection dispatch) — which is
	// exactly the nondeterminism that survives the paper's
	// reboot-per-run methodology.
	Threads(plan, trial *sim.RNG) []Stream
	// ContentClass reports the compressibility class of a page, for the
	// ZRAM device.
	ContentClass(vpn int64) zram.ContentClass
	// Segments lists the mapped segments in address order. The page
	// cache maps the file-backed ones; analysis tools attribute faults
	// to them.
	Segments() []Segment
}

// FuncStream adapts a closure to Stream.
type FuncStream func(op *Op) bool

// Next implements Stream.
func (f FuncStream) Next(op *Op) bool { return f(op) }

// SliceStream yields a fixed op slice; used in tests.
type SliceStream struct {
	Ops []Op
	i   int
}

// Next implements Stream.
func (s *SliceStream) Next(op *Op) bool {
	if s.i >= len(s.Ops) {
		return false
	}
	*op = s.Ops[s.i]
	s.i++
	return true
}
