package server

import (
	"sync"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/shard"
)

// CellView is the externally-visible state of one sweep cell.
type CellView struct {
	// CacheKey is the content-addressed artifact identity — the hash
	// GET /v1/results/{cachekey} serves.
	CacheKey string  `json:"cacheKey"`
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	Ratio    float64 `json:"ratio"`
	Swap     string  `json:"swap"`
	// Status: cached | queued | running | failed | done | quarantined.
	// "cached" is "done with provenance": the artifact predates this job.
	Status   string `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Summary is the telemetry digest of the stored artifact, present
	// once the cell is done/cached.
	Summary *experiments.SeriesSummary `json:"summary,omitempty"`
}

// JobStatus is the GET /v1/sweeps/{id} response.
type JobStatus struct {
	ID      string         `json:"id"`
	State   string         `json:"state"` // running | done | draining
	Created time.Time      `json:"created"`
	Counts  map[string]int `json:"counts"`
	Cells   []CellView     `json:"cells"`
}

// Event is one SSE frame: a cell transition or a job-terminal marker.
type Event struct {
	Type   string         `json:"-"` // SSE event name: "cell" or "done"
	Job    string         `json:"job"`
	Cell   *CellView      `json:"cell,omitempty"`
	Counts map[string]int `json:"counts,omitempty"`
}

// job is one submitted sweep: its canonical identity, enumerated cells,
// executor batch, and subscriber fan-out.
type job struct {
	key       string
	canonical Canonical
	created   time.Time
	cells     []experiments.CellSpec
	queue     *shard.Queue
	batch     *shard.Batch
	// cachedAtSubmit marks cells whose artifacts predate the job — the
	// provenance split between "cached" and "done".
	cachedAtSubmit map[string]bool
	coldAtSubmit   int

	mu       sync.Mutex
	subs     map[chan Event]struct{}
	last     map[string]string // cell cache key -> last emitted status
	terminal bool
}

func newJob(key string, c Canonical, cells []experiments.CellSpec, cached map[string]bool) *job {
	return &job{
		key:            key,
		canonical:      c,
		created:        time.Now(),
		cells:          cells,
		cachedAtSubmit: cached,
		coldAtSubmit:   len(cells) - len(cached),
		subs:           map[chan Event]struct{}{},
		last:           map[string]string{},
	}
}

// inspect returns the cell states view derives from. Static jobs (no
// executor batch — the degraded read-only server admits only
// fully-cached sweeps) have no queue, so their states come straight from
// the store.
func (j *job) inspect(store *checkpoint.Store) []shard.CellInfo {
	if j.queue != nil {
		return j.queue.Inspect()
	}
	out := make([]shard.CellInfo, len(j.cells))
	for i, c := range j.cells {
		st := shard.CellQueued
		if store.Has(c.Key) {
			st = shard.CellDone
		}
		out[i] = shard.CellInfo{Cell: c, Status: st}
	}
	return out
}

// view derives the job's full status from the on-disk protocol. It is
// the single source every surface (status JSON, SSE diffs) renders from.
// Done cells carry the summary sums reports for their cache key.
func (j *job) view(store *checkpoint.Store, sums *summaries, draining bool) JobStatus {
	st := JobStatus{
		ID:      j.key,
		Created: j.created,
		Counts:  map[string]int{},
		Cells:   make([]CellView, 0, len(j.cells)),
	}
	terminal := 0
	for _, info := range j.inspect(store) {
		cv := CellView{
			CacheKey: checkpoint.KeyHash(info.Cell.Key),
			Workload: info.Cell.Workload,
			Policy:   info.Cell.Policy,
			Ratio:    info.Cell.System.Ratio,
			Swap:     info.Cell.System.Swap.String(),
			Attempts: info.Attempts,
			Error:    info.LastErr,
		}
		switch info.Status {
		case shard.CellDone:
			terminal++
			cv.Status = "done"
			if j.cachedAtSubmit[info.Cell.Key] {
				cv.Status = "cached"
			}
			if sum, ok := sums.get(store, info.Cell.Key); ok {
				cv.Summary = &sum
			}
		case shard.CellQuarantined:
			terminal++
			cv.Status = "quarantined"
		default:
			cv.Status = string(info.Status)
		}
		st.Counts[cv.Status]++
		st.Cells = append(st.Cells, cv)
	}
	switch {
	case terminal == len(j.cells):
		st.State = "done"
	case draining:
		st.State = "draining"
	default:
		st.State = "running"
	}
	return st
}

// summaries memoizes the SeriesSummary of each stored artifact by cell
// key, so a view reads and decodes an artifact at most once per process
// instead of on every monitor tick, submit, status request and SSE
// snapshot. Caching is safe because an artifact that decodes cannot
// change: store entries are written once (PutVerify refuses divergent
// bytes, and zero-length entries read as missing), and the only entries
// the runner ever replaces are ones that fail to decode as the cell's own
// series. Failed reads and decodes are therefore never memoized, nor is
// an artifact that carries another cell's key.
type summaries struct {
	mu sync.Mutex
	m  map[string]experiments.SeriesSummary
}

// get returns the summary of the artifact stored for key. An artifact
// that does not decode, or that carries another cell's key, has none:
// like the runner, the view treats it as absent. The decode runs outside
// the lock: two views decoding the same artifact at once is harmless, as
// both arrive at the same summary.
func (s *summaries) get(store *checkpoint.Store, key string) (experiments.SeriesSummary, bool) {
	s.mu.Lock()
	sum, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		return sum, true
	}
	blob, ok := store.Get(key)
	if !ok {
		return experiments.SeriesSummary{}, false
	}
	sum, stored, ok := experiments.SummarizeSeriesBlob(blob)
	if !ok || stored != key {
		return experiments.SeriesSummary{}, false
	}
	s.mu.Lock()
	s.m[key] = sum
	s.mu.Unlock()
	return sum, true
}

// subscribe registers an SSE listener. The returned channel receives
// every subsequent event and is closed when the job reaches a terminal
// state (or the listener unsubscribes).
func (j *job) subscribe() chan Event {
	ch := make(chan Event, 256)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal {
		close(ch)
		return ch
	}
	j.subs[ch] = struct{}{}
	return ch
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// publish diffs the current view against the last emitted statuses and
// fans out one event per changed cell; when the view is terminal it
// emits the done event and closes every subscriber.
func (j *job) publish(st JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal {
		return
	}
	for i := range st.Cells {
		cv := &st.Cells[i]
		if j.last[cv.CacheKey] == cv.Status {
			continue
		}
		j.last[cv.CacheKey] = cv.Status
		j.fanout(Event{Type: "cell", Job: j.key, Cell: cv})
	}
	if st.State == "done" {
		j.terminal = true
		j.fanout(Event{Type: "done", Job: j.key, Counts: st.Counts})
		for ch := range j.subs {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// fanout delivers to every subscriber without blocking: a listener that
// stopped draining its (generously buffered) channel loses events rather
// than stalling the monitor. Called with j.mu held.
func (j *job) fanout(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// done reports whether the job has reached (and published) its terminal
// state.
func (j *job) done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal
}
