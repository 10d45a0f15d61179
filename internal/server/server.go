package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/shard"
	"mglrusim/internal/telemetry"
)

// Config shapes one sweep server.
type Config struct {
	// Store is the content-addressed result store — the cache every
	// submission is deduplicated against.
	Store *checkpoint.Store
	// Dir is the shard queue directory (leases, attempt records, poison).
	Dir string
	// Workers sizes the in-process executor pool (<=0: 4).
	Workers int
	// Seed is the methodology seed baked into every cell's cache key.
	// Default 0x5EED, matching batch pagebench.
	Seed uint64
	// Limits bound submissions.
	Limits Limits
	// QueueBound caps outstanding cold cells across all live jobs; a
	// submission that would exceed it is rejected with 429 (<=0: 256).
	QueueBound int
	// RequestTimeout bounds non-streaming request handling (0: 30s).
	RequestTimeout time.Duration
	// MonitorPoll is the job monitor's status-derivation cadence (0: 50ms).
	MonitorPoll time.Duration
	// ShardTTL/ShardBackoff/ShardPoll tune the lease executor (zero
	// values: shard defaults).
	ShardTTL     time.Duration
	ShardBackoff time.Duration
	ShardPoll    time.Duration
	// MaxSkew is the clock-skew grace granted to other machines' leases
	// before stealing (shard.Config.MaxSkew). Zero: single-machine
	// semantics.
	MaxSkew time.Duration
	// ReadOnly forces degraded mode: fully-cached sweeps are served from
	// the store, submissions needing execution get 503. It is also
	// entered automatically when the store or queue directory is not
	// writable at startup.
	ReadOnly bool
	// Counters receives server and executor counters. Required for stats;
	// created when nil.
	Counters *telemetry.CounterSet
	// Progress, when non-nil, receives one line per notable state change.
	Progress io.Writer
}

// Server is the sweep daemon: submissions in, cache-first scheduling onto
// the embedded shard executor, job status/SSE/result artifacts out.
type Server struct {
	cfg      Config
	lim      Limits
	shardCfg shard.Config
	exec     *shard.Executor

	mu         sync.Mutex
	jobs       map[string]*job
	activeCold int

	sums summaries

	draining atomic.Bool
	readOnly atomic.Bool
	quit     chan struct{}
	wg       sync.WaitGroup
}

// probeWritable verifies a directory accepts writes by creating and
// removing a probe file — the startup check behind automatic degraded
// mode (a server pointed at a read-only NFS export of the fleet's store
// still serves cached artifacts instead of failing every job later).
func probeWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// New starts a server (its executor pool starts immediately).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5EED
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MonitorPoll <= 0 {
		cfg.MonitorPoll = 50 * time.Millisecond
	}
	if cfg.Counters == nil {
		cfg.Counters = telemetry.NewCounterSet()
	}
	cfg.Limits = cfg.Limits.withDefaults()
	shardCfg := shard.Config{
		Dir:      cfg.Dir,
		Store:    cfg.Store,
		TTL:      cfg.ShardTTL,
		Backoff:  cfg.ShardBackoff,
		Poll:     cfg.ShardPoll,
		MaxSkew:  cfg.MaxSkew,
		Counters: cfg.Counters,
		Progress: cfg.Progress,
	}
	exec, err := shard.NewExecutor(shardCfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:      cfg,
		lim:      cfg.Limits,
		shardCfg: shardCfg,
		exec:     exec,
		jobs:     map[string]*job{},
		sums:     summaries{m: map[string]experiments.SeriesSummary{}},
		quit:     make(chan struct{}),
	}
	readOnly := cfg.ReadOnly
	if !readOnly {
		if err := probeWritable(cfg.Dir); err != nil {
			readOnly = true
		} else if err := probeWritable(cfg.Store.Dir()); err != nil {
			readOnly = true
		}
		if readOnly && cfg.Progress != nil {
			fmt.Fprintln(cfg.Progress, "server: store or queue directory not writable; entering degraded read-only mode")
		}
	}
	if readOnly {
		srv.readOnly.Store(true)
		cfg.Counters.Add("server.degraded.readonly", 1)
	}
	return srv, nil
}

// Counters exposes the server's counter set.
func (s *Server) Counters() *telemetry.CounterSet { return s.cfg.Counters }

// Handler builds the API surface. Non-streaming endpoints run under the
// request timeout; the SSE stream manages its own lifetime.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	bounded := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, s.cfg.RequestTimeout, "request timed out\n")
	}
	mux.Handle("POST /v1/sweeps", bounded(s.handleSubmit))
	mux.Handle("GET /v1/sweeps/{id}", bounded(s.handleStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.Handle("GET /v1/results/{cachekey}", bounded(s.handleResult))
	mux.Handle("GET /v1/stats", bounded(s.handleStats))
	mux.Handle("GET /v1/healthz", bounded(s.handleHealth))
	return mux
}

// Drain stops the server gracefully: new submissions get 503, the
// executor finishes in-flight cells and stops claiming, job monitors
// wind down. The store and queue directory are left consistent for the
// next process to resume. Idempotent.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
		return
	}
	if s.cfg.Progress != nil {
		fmt.Fprintln(s.cfg.Progress, "server: draining")
	}
	s.exec.Drain()
	close(s.quit)
	s.wg.Wait()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, e)
}

// handleSubmit is POST /v1/sweeps: validate, canonicalize, dedup
// (content-addressed job identity = singleflight across clients),
// classify cells cached/cold, admit under the queue bound, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeAPIError(w, &apiError{Status: http.StatusServiceUnavailable,
			Code: "draining", Message: "server is draining; resubmit elsewhere"})
		return
	}
	c, aerr := ParseSweepRequest(r.Body, s.lim)
	if aerr != nil {
		s.cfg.Counters.Add("server.rejected.invalid", 1)
		writeAPIError(w, aerr)
		return
	}
	key := c.JobKey(s.cfg.Seed)

	// Fast path: the job already exists (an identical submission, earlier
	// or concurrent) — share it.
	s.mu.Lock()
	if j, ok := s.jobs[key]; ok {
		s.mu.Unlock()
		s.cfg.Counters.Add("server.sweeps.deduped", 1)
		writeJSON(w, http.StatusOK, s.view(j))
		return
	}
	s.mu.Unlock()

	// Enumerate outside the lock (collector-mode, executes nothing).
	cells, err := experiments.SweepCells(c.Options(s.cfg.Seed), c.SweepSpec())
	if err != nil {
		s.cfg.Counters.Add("server.rejected.invalid", 1)
		writeAPIError(w, badRequest("bad-sweep", "%v", err))
		return
	}
	cached := map[string]bool{}
	for _, cell := range cells {
		if s.cfg.Store.Has(cell.Key) {
			cached[cell.Key] = true
		}
	}
	cold := len(cells) - len(cached)

	// Degraded read-only mode: the store cannot be written (or the
	// operator pinned -readonly), so this process can serve exactly what
	// the fleet already computed. Fully-cached sweeps resolve instantly
	// as static jobs; anything needing execution is refused with 503 so
	// the client retries against a writable peer.
	if s.readOnly.Load() {
		if cold > 0 {
			s.cfg.Counters.Add("server.rejected.readonly", 1)
			writeAPIError(w, &apiError{Status: http.StatusServiceUnavailable, Code: "degraded-read-only",
				Message: fmt.Sprintf("server is read-only and %d of %d cells are not cached; resubmit to a writable server",
					cold, len(cells))})
			return
		}
		s.mu.Lock()
		j, ok := s.jobs[key]
		if !ok {
			j = newJob(key, c, cells, cached)
			s.jobs[key] = j
		}
		s.mu.Unlock()
		if ok {
			s.cfg.Counters.Add("server.sweeps.deduped", 1)
		} else {
			s.cfg.Counters.Add("server.sweeps.submitted", 1)
			s.cfg.Counters.Add("server.cells.cached", int64(len(cached)))
			s.cfg.Counters.Add("server.sweeps.completed", 1)
			// All cells are terminal at creation: publish once so SSE
			// subscribers get an immediate snapshot + done.
			j.publish(s.view(j))
		}
		writeJSON(w, http.StatusOK, s.view(j))
		return
	}

	s.mu.Lock()
	if j, ok := s.jobs[key]; ok {
		// Lost the singleflight race to a concurrent identical submission.
		s.mu.Unlock()
		s.cfg.Counters.Add("server.sweeps.deduped", 1)
		writeJSON(w, http.StatusOK, s.view(j))
		return
	}
	if s.activeCold+cold > s.cfg.QueueBound {
		depth := s.activeCold
		s.mu.Unlock()
		s.cfg.Counters.Add("server.rejected.backpressure", 1)
		writeAPIError(w, &apiError{Status: http.StatusTooManyRequests, Code: "queue-full",
			Message: fmt.Sprintf("sweep needs %d cold cells but %d of %d queue slots are taken; retry later",
				cold, depth, s.cfg.QueueBound)})
		return
	}

	j := newJob(key, c, cells, cached)
	batch, err := s.exec.Submit(shard.BatchSpec{
		Cells: cells,
		NewRunner: func() *experiments.Runner {
			o := c.Options(s.cfg.Seed)
			o.Checkpoint = s.cfg.Store
			o.Progress = s.cfg.Progress
			return experiments.NewRunner(o)
		},
	})
	if err != nil {
		s.mu.Unlock()
		writeAPIError(w, &apiError{Status: http.StatusInternalServerError, Code: "enqueue-failed",
			Message: err.Error()})
		return
	}
	j.batch = batch
	j.queue = batch.Queue()
	s.jobs[key] = j
	s.activeCold += cold
	s.wg.Add(1)
	s.mu.Unlock()

	s.cfg.Counters.Add("server.sweeps.submitted", 1)
	s.cfg.Counters.Add("server.cells.cached", int64(len(cached)))
	s.cfg.Counters.Add("server.cells.cold", int64(cold))
	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, "server: job %s: %d cells (%d cached, %d cold)\n",
			key, len(cells), len(cached), cold)
	}
	// Render the response before the monitor starts, so the two do not
	// race to decode the same cached artifacts.
	st := s.view(j)
	go s.monitor(j)
	writeJSON(w, http.StatusAccepted, st)
}

// view renders a job's current status.
func (s *Server) view(j *job) JobStatus {
	return j.view(s.cfg.Store, &s.sums, s.draining.Load())
}

// monitor derives and publishes a job's status until it is terminal (or
// the server shuts down), then releases the job's queue-bound slots.
func (s *Server) monitor(j *job) {
	defer s.wg.Done()
	for {
		j.publish(s.view(j))
		if j.done() {
			s.mu.Lock()
			s.activeCold -= j.coldAtSubmit
			s.mu.Unlock()
			s.cfg.Counters.Add("server.sweeps.completed", 1)
			return
		}
		select {
		case <-j.batch.Done():
			// Resolved: loop once more so the terminal view publishes.
		case <-time.After(s.cfg.MonitorPoll):
		case <-s.quit:
			return
		}
	}
}

func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// handleStatus is GET /v1/sweeps/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeAPIError(w, &apiError{Status: 404, Code: "unknown-job",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// handleEvents is GET /v1/sweeps/{id}/events: an SSE stream of cell
// transitions ending in a "done" event. A snapshot of the current state
// is replayed first so late subscribers see every cell.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeAPIError(w, &apiError{Status: 404, Code: "unknown-job",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, &apiError{Status: 500, Code: "no-streaming",
			Message: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before the snapshot so no transition falls between them;
	// a duplicate frame is harmless, a lost one is not.
	ch := j.subscribe()
	defer j.unsubscribe(ch)

	st := s.view(j)
	writeSSE(w, "snapshot", st)
	if st.State == "done" {
		writeSSE(w, "done", Event{Job: j.key, Counts: st.Counts})
		fl.Flush()
		return
	}
	fl.Flush()

	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // job terminal: the "done" event was the last frame
			}
			writeSSE(w, ev.Type, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.quit:
			return
		}
	}
}

func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleResult is GET /v1/results/{cachekey}: the stored metrics
// artifact, by content-addressed entry hash.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("cachekey")
	blob, ok := s.cfg.Store.GetHash(hash)
	if !ok {
		s.cfg.Counters.Add("server.results.missed", 1)
		writeAPIError(w, &apiError{Status: 404, Code: "unknown-result",
			Message: fmt.Sprintf("no artifact %q", hash)})
		return
	}
	s.cfg.Counters.Add("server.results.served", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// FleetStats is the worker-fleet section of GET /v1/stats: the
// coordination-layer health signals an operator watches when many
// machines share this server's store over a network filesystem.
type FleetStats struct {
	ReadOnly bool `json:"readOnly"`
	// MaxSkew is the configured clock-skew steal grace, as a duration
	// string.
	MaxSkew string `json:"maxSkew"`
	// LeasesStolen counts expired leases this process took over.
	LeasesStolen int64 `json:"leasesStolen"`
	// LeasesExpired counts crashed attempts charged on freshly-stolen
	// leases.
	LeasesExpired int64 `json:"leasesExpired"`
	// LeasesFastReclaimed counts same-host dead-pid reclaims that skipped
	// the TTL wait.
	LeasesFastReclaimed int64 `json:"leasesFastReclaimed"`
	// LeasesCorruptQuarantined counts torn/corrupt lease records moved
	// aside.
	LeasesCorruptQuarantined int64 `json:"leasesCorruptQuarantined"`
	// CellsFenced counts attempts voided because a newer lease epoch
	// superseded them; PublishFenced counts publications rejected at the
	// store by the fence.
	CellsFenced   int64 `json:"cellsFenced"`
	PublishFenced int64 `json:"publishFenced"`
}

// Stats is the GET /v1/stats response.
type Stats struct {
	Draining      bool             `json:"draining"`
	Jobs          int              `json:"jobs"`
	QueueDepth    int              `json:"queueDepth"`
	QueueBound    int              `json:"queueBound"`
	Workers       int              `json:"workers"`
	StoredResults int              `json:"storedResults"`
	Fleet         FleetStats       `json:"fleet"`
	Counters      map[string]int64 `json:"counters"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, depth := len(s.jobs), s.activeCold
	s.mu.Unlock()
	names, values := s.cfg.Counters.Snapshot()
	counters := make(map[string]int64, len(names))
	for i, n := range names {
		counters[n] = values[i]
	}
	writeJSON(w, http.StatusOK, Stats{
		Draining:      s.draining.Load(),
		Jobs:          jobs,
		QueueDepth:    depth,
		QueueBound:    s.cfg.QueueBound,
		Workers:       s.exec.Workers(),
		StoredResults: s.cfg.Store.Len(),
		Fleet: FleetStats{
			ReadOnly:                 s.readOnly.Load(),
			MaxSkew:                  s.cfg.MaxSkew.String(),
			LeasesStolen:             counters["leases.stolen"],
			LeasesExpired:            counters["leases.expired"],
			LeasesFastReclaimed:      counters["leases.fast_reclaimed"],
			LeasesCorruptQuarantined: counters["leases.corrupt_quarantined"],
			CellsFenced:              counters["cells.fenced"],
			PublishFenced:            counters["publish.fenced"],
		},
		Counters: counters,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.readOnly.Load():
		// Degraded but serving: cached artifacts and fully-cached sweeps
		// still work, so this is 200 with an explicit mode marker.
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded-read-only"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}
