// Package ycsb models the YCSB A, B, and C workloads against a
// memcached-like key-value cache (package kvstore), the paper's serving
// workload. Requests draw keys from YCSB's scrambled-zipfian distribution
// (theta = 0.99) and are delimited with request markers so the harness
// records per-request latency for the tail-latency figures (Figs. 3, 8,
// 12).
//
// Mixes match YCSB: A = 50% reads / 50% updates, B = 95/5, C = 100/0.
// An execution first loads the cache (unmeasured), then issues the
// measured request stream from a fixed number of server threads (the
// paper runs memcached with its default four).
package ycsb

import (
	"fmt"
	"sync"

	"mglrusim/internal/kvstore"
	"mglrusim/internal/pagetable"
	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

// Mix identifies the YCSB workload letter.
type Mix uint8

// The workload mixes the paper evaluates.
const (
	MixA Mix = iota // 50% read, 50% update
	MixB            // 95% read, 5% update
	MixC            // 100% read
)

// ReadFraction reports the mix's read ratio.
func (m Mix) ReadFraction() float64 {
	switch m {
	case MixA:
		return 0.5
	case MixB:
		return 0.95
	default:
		return 1.0
	}
}

// String implements fmt.Stringer.
func (m Mix) String() string {
	switch m {
	case MixA:
		return "ycsb-a"
	case MixB:
		return "ycsb-b"
	case MixC:
		return "ycsb-c"
	}
	return fmt.Sprintf("Mix(%d)", uint8(m))
}

// Config sizes the workload.
type Config struct {
	// Mix selects A, B, or C.
	Mix Mix
	// Items is the number of cached items (the paper loads 11M; scaled).
	Items int
	// Requests is the measured request count (the paper issues 110M;
	// scaled, keeping the 10:1 requests:items ratio).
	Requests int
	// Threads is the server thread count (memcached default: 4).
	Threads int
	// Theta is the zipfian skew (YCSB default 0.99).
	Theta float64
	// LookupCPU and UpdateCPU are per-request compute costs.
	LookupCPU, UpdateCPU sim.Duration
	// RegionPTEs is the page-table region fanout.
	RegionPTEs int
}

// DefaultConfig returns the calibrated scaled-down configuration for mix.
func DefaultConfig(mix Mix) Config {
	return Config{
		Mix:        mix,
		Items:      14000,
		Requests:   140000,
		Threads:    4,
		Theta:      workload.YCSBTheta,
		LookupCPU:  60 * sim.Microsecond,
		UpdateCPU:  90 * sim.Microsecond,
		RegionPTEs: workload.DefaultRegionPTEs,
	}
}

// YCSB is the workload.
type YCSB struct {
	*workload.AddrSpace

	cfg   Config
	store *kvstore.Store
	// keys builds the key generator on the first Threads call. A
	// Zipfian is immutable, so every thread of every trial shares one
	// rather than summing zeta(n) again.
	keys func() *workload.Zipfian
}

// New builds the workload.
func New(cfg Config) *YCSB {
	if cfg.Items <= 0 || cfg.Requests <= 0 || cfg.Threads <= 0 {
		panic("ycsb: invalid config")
	}
	w := &YCSB{cfg: cfg, AddrSpace: workload.NewAddrSpace(cfg.RegionPTEs)}
	sc := kvstore.DefaultConfig(cfg.Items)
	probe := kvstore.New(sc, 0)
	// One contiguous segment for index + slabs, as a real memcached heap
	// is laid out; ContentClass distinguishes the incompressible values.
	seg := w.Add("kvstore", probe.Pages(), false, zram.ClassStructured)
	w.store = kvstore.New(sc, seg.Base)
	w.keys = sync.OnceValue(func() *workload.Zipfian {
		return workload.NewScrambledZipfian(int64(cfg.Items), cfg.Theta)
	})
	return w
}

// Name implements workload.Workload.
func (w *YCSB) Name() string { return w.cfg.Mix.String() }

// ContentClass overrides the embedded AddrSpace's: the hash index is
// pointer data (structured), item slabs hold serialized values
// (incompressible).
func (w *YCSB) ContentClass(vpn int64) zram.ContentClass {
	if pagetable.VPN(vpn) >= w.store.End()-pagetable.VPN(w.store.SlabPages()) &&
		pagetable.VPN(vpn) < w.store.End() {
		return zram.ClassRandom
	}
	return w.AddrSpace.ContentClass(vpn)
}

// Store exposes the kv layout for tests.
func (w *YCSB) Store() *kvstore.Store { return w.store }

// Threads implements workload.Workload: thread 0..n-1 each handle an
// equal share of the load phase and of the measured requests. The key
// popularity profile (scrambled zipfian) is fixed by the workload; the
// request arrival sequence is drawn per execution, as a real load
// generator's connections would deliver it.
func (w *YCSB) Threads(plan, trial *sim.RNG) []workload.Stream {
	n := w.cfg.Threads
	zipf := w.keys()
	streams := make([]workload.Stream, n)
	for tid := 0; tid < n; tid++ {
		lf := w.cfg.Items * tid / n
		lt := w.cfg.Items * (tid + 1) / n
		reqs := w.cfg.Requests*(tid+1)/n - w.cfg.Requests*tid/n
		streams[tid] = &stream{
			w:       w,
			zipf:    zipf,
			rng:     trial.Stream(uint64(tid) + 577),
			loadKey: lf,
			loadEnd: lt,
			reqs:    reqs,
		}
	}
	return streams
}

// stream issues the load phase then the measured request phase.
type stream struct {
	w    *YCSB
	zipf *workload.Zipfian
	rng  *sim.RNG

	loadKey, loadEnd int
	loadStep         int // 0: index touch, 1: item write

	reqs    int
	pending [2]kvstore.PageAccess
	step    int // 0: emit ReqStart, 1..2: accesses, 3: emit ReqEnd
	isRead  bool
}

// Next implements workload.Stream.
func (s *stream) Next(op *workload.Op) bool {
	w := s.w
	// Load phase: insert every owned item (unmeasured writes).
	if s.loadKey < s.loadEnd {
		acc := w.store.Set(int64(s.loadKey))
		a := acc[s.loadStep]
		*op = workload.Op{Kind: workload.OpAccess, VPN: a.VPN, Write: a.Write, CPU: w.cfg.UpdateCPU / 2}
		s.loadStep++
		if s.loadStep == len(acc) {
			s.loadStep = 0
			s.loadKey++
		}
		return true
	}
	// Request phase.
	if s.reqs <= 0 && s.step == 0 {
		return false
	}
	switch s.step {
	case 0:
		s.isRead = s.rng.Float64() < w.cfg.Mix.ReadFraction()
		key := s.zipf.Next(s.rng)
		if s.isRead {
			s.pending = w.store.Get(key)
		} else {
			s.pending = w.store.Set(key)
		}
		class := workload.ReqRead
		if !s.isRead {
			class = workload.ReqWrite
		}
		*op = workload.Op{Kind: workload.OpReqStart, Class: class}
		s.step = 1
	case 1, 2:
		a := s.pending[s.step-1]
		cpu := w.cfg.LookupCPU / 2
		if a.Write {
			cpu = w.cfg.UpdateCPU / 2
		}
		*op = workload.Op{Kind: workload.OpAccess, VPN: a.VPN, Write: a.Write, CPU: cpu}
		s.step++
	case 3:
		*op = workload.Op{Kind: workload.OpReqEnd}
		s.step = 0
		s.reqs--
	}
	return true
}

var _ workload.Workload = (*YCSB)(nil)
