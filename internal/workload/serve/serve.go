// Package serve models a production serving fleet's front-end node: a
// static-object server streaming file-backed content under live traffic.
// It is the page-cache counterpart of the YCSB serving workload — where
// YCSB stresses an anonymous heap, serve stresses the file-vs-anon
// reclaim split: the object store is file-backed (read through the page
// cache, written back on upload), while the metadata index and response
// scratch buffers are anonymous memory competing for the same frames.
//
// Traffic has the structure production request logs show:
//
//   - Zipf-over-objects skew: a scrambled-zipfian popularity profile over
//     the object catalog (hot objects scattered across the store).
//   - Diurnal load swings: mean think time between requests follows a
//     sinusoidal day/night profile over the run.
//   - Flash-crowd bursts: short windows where arrivals spike and traffic
//     concentrates on a small trending set, chosen per execution plan.
//   - Working-set phase shifts: the popularity mapping rotates at phase
//     boundaries, so yesterday's hot objects go cold and a disjoint set
//     heats up — the refault-imbalance stimulus the pidctl tier gain
//     responds to.
//
// Everything is deterministic per seed pair: the plan RNG fixes burst
// placement and trending sets, the trial RNG drives per-thread request
// draws, and identical seeds reproduce the request stream byte for byte
// (FuzzServeWorkload asserts this).
package serve

import (
	"math"

	"mglrusim/internal/sim"
	"mglrusim/internal/workload"
	"mglrusim/internal/zram"
)

// Config sizes the workload.
type Config struct {
	// Objects is the catalog size.
	Objects int
	// ObjPages is pages per object; a request streams them sequentially.
	ObjPages int
	// Requests is the measured request count across all threads.
	Requests int
	// Threads is the server worker count.
	Threads int
	// Theta is the zipfian skew over objects (YCSB default 0.99).
	Theta float64
	// WriteFrac is the fraction of requests that mutate the object
	// (uploads/edits): they dirty file pages and so drive writeback.
	WriteFrac float64
	// Phases is how many working-set phases the run is split into; the
	// popularity mapping rotates at each boundary. 1 disables shifts.
	Phases int
	// DiurnalAmp is the think-time swing amplitude in [0, 1); 0 flattens
	// the day/night profile.
	DiurnalAmp float64
	// DiurnalCycles is how many full day/night cycles the run spans.
	DiurnalCycles float64
	// BurstCount flash-crowd windows are placed by the execution plan;
	// BurstLen is each window's width as a fraction of the run, and
	// BurstHot is the trending-set size traffic concentrates on.
	BurstCount int
	BurstLen   float64
	BurstHot   int
	// Sessions is the in-process session table, in pages — the large anon
	// heap every serving node carries. Each request reads and updates one
	// session, drawn with SessionTheta zipfian skew: a few hot sessions
	// stay resident while the long cold tail is the reclaimable anon
	// capacity file-tier protection can shift eviction pressure onto.
	// 0 disables the segment.
	Sessions     int
	SessionTheta float64
	// ThinkCPU is the baseline mean inter-request compute; ServeCPU is
	// per-page compute while streaming an object.
	ThinkCPU, ServeCPU sim.Duration
	// RegionPTEs is the page-table region fanout.
	RegionPTEs int
}

// DefaultConfig returns the calibrated scaled-down configuration.
func DefaultConfig() Config {
	return Config{
		Objects:       3000,
		ObjPages:      4,
		Requests:      40000,
		Threads:       4,
		Theta:         workload.YCSBTheta,
		WriteFrac:     0.08,
		Phases:        3,
		DiurnalAmp:    0.5,
		DiurnalCycles: 2,
		BurstCount:    3,
		BurstLen:      0.04,
		BurstHot:      24,
		Sessions:      5000,
		SessionTheta:  0.8,
		ThinkCPU:      40 * sim.Microsecond,
		ServeCPU:      15 * sim.Microsecond,
		RegionPTEs:    workload.DefaultRegionPTEs,
	}
}

// idxEntriesPerPage is how many object-metadata entries share one index
// page (a 64-byte entry per 4 KiB page).
const idxEntriesPerPage = 64

// scratchPerThread is each worker's private response-assembly buffer.
const scratchPerThread = 48

// Serve is the workload.
type Serve struct {
	*workload.AddrSpace

	cfg      Config
	objects  workload.Segment
	index    workload.Segment
	sessions workload.Segment
	scratch  workload.Segment
}

// New builds the workload.
func New(cfg Config) *Serve {
	if cfg.Objects <= 0 || cfg.ObjPages <= 0 || cfg.Requests <= 0 || cfg.Threads <= 0 {
		panic("serve: invalid config")
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 1
	}
	if cfg.BurstHot <= 0 || cfg.BurstHot > cfg.Objects {
		cfg.BurstHot = min(24, cfg.Objects)
	}
	if cfg.Sessions < 0 {
		cfg.Sessions = 0
	}
	if cfg.SessionTheta <= 0 {
		cfg.SessionTheta = 0.8
	}
	w := &Serve{cfg: cfg, AddrSpace: workload.NewAddrSpace(cfg.RegionPTEs)}
	idxPages := (cfg.Objects + idxEntriesPerPage - 1) / idxEntriesPerPage
	// The object store is the file-backed segment: served media,
	// incompressible. Index and scratch are the anon competitors.
	w.objects = w.Add("objects", cfg.Objects*cfg.ObjPages, true, zram.ClassRandom)
	w.index = w.Add("index", idxPages, false, zram.ClassStructured)
	if cfg.Sessions > 0 {
		w.sessions = w.Add("sessions", cfg.Sessions, false, zram.ClassStructured)
	}
	w.scratch = w.Add("scratch", cfg.Threads*scratchPerThread, false, zram.ClassZeroHeavy)
	return w
}

// Name implements workload.Workload.
func (w *Serve) Name() string { return "serve" }

// burst is one flash-crowd window with its trending set.
type burst struct {
	from, to float64 // run-progress interval
	hot      []int64 // trending object ids
}

// Threads implements workload.Workload. Burst placement and trending
// sets come from the plan RNG — part of the workload's identity, shared
// by all threads — while per-thread draws (object choice, write mix,
// think jitter) come from trial streams, the way connection dispatch
// varies across executions.
func (w *Serve) Threads(plan, trial *sim.RNG) []workload.Stream {
	planRNG := plan.Stream(31)
	bursts := make([]burst, w.cfg.BurstCount)
	for i := range bursts {
		span := 1 - w.cfg.BurstLen
		if span < 0 {
			span = 0
		}
		start := planRNG.Float64() * span
		b := burst{from: start, to: start + w.cfg.BurstLen,
			hot: make([]int64, w.cfg.BurstHot)}
		for j := range b.hot {
			b.hot[j] = planRNG.Int63n(int64(w.cfg.Objects))
		}
		bursts[i] = b
	}

	n := w.cfg.Threads
	streams := make([]workload.Stream, n)
	for tid := 0; tid < n; tid++ {
		reqs := w.cfg.Requests*(tid+1)/n - w.cfg.Requests*tid/n
		st := &stream{
			w:      w,
			tid:    tid,
			zipf:   workload.NewScrambledZipfian(int64(w.cfg.Objects), w.cfg.Theta),
			rng:    trial.Stream(uint64(tid) + 911),
			bursts: bursts,
			total:  reqs,
		}
		if w.cfg.Sessions > 0 {
			st.sessZipf = workload.NewScrambledZipfian(int64(w.cfg.Sessions), w.cfg.SessionTheta)
		}
		streams[tid] = st
	}
	return streams
}

// stream is one worker's request loop.
type stream struct {
	w        *Serve
	tid      int
	zipf     *workload.Zipfian
	sessZipf *workload.Zipfian
	rng      *sim.RNG
	bursts   []burst

	total  int // requests this thread will issue
	issued int

	obj     int64
	isWrite bool
	page    int // next object page to stream
	// step: 0 think, 1 ReqStart, 2 index access, 3 session read+update,
	// 4 object pages, 5 scratch write, 6 ReqEnd.
	step int
}

// progress is the thread's position in the run, in [0, 1).
func (s *stream) progress() float64 {
	return float64(s.issued) / float64(s.total)
}

// inBurst reports the active flash-crowd window, if any.
func (s *stream) inBurst(p float64) *burst {
	for i := range s.bursts {
		if p >= s.bursts[i].from && p < s.bursts[i].to {
			return &s.bursts[i]
		}
	}
	return nil
}

// pickObject draws the request's object: trending set during a burst,
// else the zipfian rotated by the current working-set phase. The result
// is always in [0, Objects) — phase rotation is a modular shift, so a
// boundary crossing can never push an id out of range.
func (s *stream) pickObject(p float64, b *burst) int64 {
	if b != nil && s.rng.Float64() < 0.7 {
		return b.hot[s.rng.Int63n(int64(len(b.hot)))]
	}
	z := s.zipf.Next(s.rng)
	phase := int64(p * float64(s.w.cfg.Phases))
	if phase >= int64(s.w.cfg.Phases) {
		phase = int64(s.w.cfg.Phases) - 1
	}
	objs := int64(s.w.cfg.Objects)
	return (z + phase*(objs/int64(s.w.cfg.Phases))) % objs
}

// think is the diurnally-modulated inter-request compute; a flash crowd
// collapses it (arrival spike).
func (s *stream) think(p float64, b *burst) sim.Duration {
	d := float64(s.w.cfg.ThinkCPU) *
		(1 + s.w.cfg.DiurnalAmp*math.Sin(2*math.Pi*p*s.w.cfg.DiurnalCycles))
	if b != nil {
		d /= 8
	}
	// ±25% per-request jitter.
	d *= 0.75 + 0.5*s.rng.Float64()
	if d < 1 {
		d = 1
	}
	return sim.Duration(d)
}

// Next implements workload.Stream.
func (s *stream) Next(op *workload.Op) bool {
	w := s.w
	if s.issued >= s.total && s.step == 0 {
		return false
	}
	switch s.step {
	case 0:
		p := s.progress()
		b := s.inBurst(p)
		s.obj = s.pickObject(p, b)
		s.isWrite = s.rng.Float64() < w.cfg.WriteFrac
		s.page = 0
		*op = workload.Op{Kind: workload.OpCompute, CPU: s.think(p, b)}
		s.step = 1
	case 1:
		class := workload.ReqRead
		if s.isWrite {
			class = workload.ReqWrite
		}
		*op = workload.Op{Kind: workload.OpReqStart, Class: class}
		s.step = 2
	case 2:
		// Metadata lookup; an upload also rewrites the entry.
		vpn := w.index.Page(int(s.obj) / idxEntriesPerPage)
		*op = workload.Op{Kind: workload.OpAccess, VPN: vpn, Write: s.isWrite, CPU: w.cfg.ServeCPU / 4}
		s.step = 3
	case 3:
		if s.sessZipf == nil {
			s.step = 4
			return s.Next(op)
		}
		// Session read+update: the request's client session is looked up
		// and its last-seen state rewritten, dirtying one anon page from
		// the big session table.
		vpn := w.sessions.Page(int(s.sessZipf.Next(s.rng)))
		*op = workload.Op{Kind: workload.OpAccess, VPN: vpn, Write: true, CPU: w.cfg.ServeCPU / 4}
		s.step = 4
	case 4:
		// Stream the object's pages in file order.
		vpn := w.objects.Page(int(s.obj)*w.cfg.ObjPages + s.page)
		*op = workload.Op{Kind: workload.OpAccess, VPN: vpn, Write: s.isWrite, CPU: w.cfg.ServeCPU}
		s.page++
		if s.page == w.cfg.ObjPages {
			s.step = 5
		}
	case 5:
		// Response assembly in the worker's private scratch ring.
		vpn := w.scratch.Page(s.tid*scratchPerThread + s.issued%scratchPerThread)
		*op = workload.Op{Kind: workload.OpAccess, VPN: vpn, Write: true, CPU: w.cfg.ServeCPU / 4}
		s.step = 6
	case 6:
		*op = workload.Op{Kind: workload.OpReqEnd}
		s.issued++
		s.step = 0
	}
	return true
}

var _ workload.Workload = (*Serve)(nil)
