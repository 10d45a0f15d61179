package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/server"
)

// The sweep the server workload submits: every paper workload under
// Clock and MG-LRU at the paper's three capacity ratios.
var (
	sweepPolicies = []string{experiments.PolClock, experiments.PolMGLRU}
	sweepRatios   = []float64{0.5, 0.75, 0.9}
)

// sweepBench drives an in-process sweep server over HTTP. A cold pass
// submits the whole sweep to a fresh server over an empty store; a cached
// request submits one sub-sweep to the server whose store the warm pass
// filled, so it is answered without simulating.
type sweepBench struct {
	seed      uint64
	dir       string
	workloads []string
	full      []byte   // the whole sweep's request body
	subs      [][]byte // every non-empty sub-sweep's request body
	cells     int

	warmSrv *liveServer
	servers int // servers started, for unique directories

	refArtifacts map[string][]byte // the warm pass's artifacts
	// cachedSubs are the sub-sweeps a cached request walks, in order.
	cachedSubs []int
}

// cachedSubSweeps is how many sub-sweeps one cached request walks.
const cachedSubSweeps = 16

func setupSweep(sz size, seed uint64, dir string) (*sweepBench, setupTiming, error) {
	start := time.Now()
	sb := &sweepBench{seed: seed, dir: dir}
	for _, w := range experiments.Workloads(sz.scale) {
		sb.workloads = append(sb.workloads, w.Name)
	}
	body := func(ws, ps []string, rs []float64) []byte {
		data, _ := json.Marshal(server.SweepRequest{ // plain values: cannot fail
			Workloads: ws, Policies: ps, Ratios: rs, Trials: sz.trials, Scale: sz.scale})
		return data
	}
	sb.full = body(sb.workloads, sweepPolicies, sweepRatios)
	for wm := 1; wm < 1<<len(sb.workloads); wm++ {
		for pm := 1; pm < 1<<len(sweepPolicies); pm++ {
			for rm := 1; rm < 1<<len(sweepRatios); rm++ {
				sb.subs = append(sb.subs, body(pick(sb.workloads, wm), pick(sweepPolicies, pm), pick(sweepRatios, rm)))
			}
		}
	}
	// The walk is the same on every request and does not depend on
	// --seed: sub-sweeps range from 1 to 30 cells, so a walk that changed
	// with the seed, or ran further on a faster host, would change what
	// cached_ms averages over.
	sb.cachedSubs = rand.New(rand.NewSource(1)).Perm(len(sb.subs))[:cachedSubSweeps]

	// Enumerate the cells exactly as the server will on submission.
	opts := experiments.Options{Trials: sz.trials, Scale: sz.scale, Seed: seed, Parallelism: 1}
	spec := experiments.SweepSpec{Workloads: sb.workloads, Policies: sweepPolicies,
		Base: core.DefaultSystemConfig(), Ratios: sweepRatios}
	cells, err := experiments.SweepCells(opts, spec)
	if err != nil {
		return nil, setupTiming{}, err
	}
	sb.cells = len(cells)
	enumerated := time.Now()
	// The server's runners build their own workloads, so this construction
	// only measures the cost each cold sweep pays again.
	for _, w := range experiments.Workloads(sz.scale) {
		w.Make()
	}
	made := time.Now()
	if sb.warmSrv, err = sb.startServer(); err != nil {
		return nil, setupTiming{}, err
	}
	return sb, setupTiming{total: time.Since(start), enumerate: enumerated.Sub(start), make: made.Sub(enumerated)}, nil
}

func pick[T any](all []T, mask int) []T {
	var out []T
	for i, v := range all {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}

func (sb *sweepBench) cellCount() int { return sb.cells }

func (sb *sweepBench) close() {
	if sb.warmSrv != nil {
		sb.warmSrv.close()
	}
}

func (sb *sweepBench) warm() (passOut, error) {
	out, arts, err := sb.sweepAll(sb.warmSrv, nil, 0)
	if err != nil {
		return passOut{}, err
	}
	sb.refArtifacts = arts
	return out, nil
}

// cold submits the whole sweep to a fresh server over an empty store. The
// server's start and shutdown are outside the timed interval.
func (sb *sweepBench) cold(tr *tracer, parent int) (passOut, error) {
	srv, err := sb.startServer()
	if err != nil {
		return passOut{}, err
	}
	defer srv.close()
	out, _, err := sb.sweepAll(srv, tr, parent)
	return out, err
}

// sweepAll runs the whole sweep on srv. Its output is every artifact,
// sorted by cache key.
func (sb *sweepBench) sweepAll(srv *liveServer, tr *tracer, parent int) (passOut, map[string][]byte, error) {
	start := time.Now()
	arts, err := sb.sweep(srv, sb.full, tr, "full", parent, 0)
	whole := endPart(start)
	if err != nil {
		return passOut{}, nil, err
	}
	if len(arts) != sb.cells {
		return passOut{}, nil, fmt.Errorf("sweep returned %d artifacts for %d cells", len(arts), sb.cells)
	}
	keys := make([]string, 0, len(arts))
	for k := range arts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	var counts tally
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s\n%s\n", k, arts[k])
		var env struct{ Trials []trialCounts }
		if err := json.Unmarshal(arts[k], &env); err != nil {
			return passOut{}, nil, fmt.Errorf("artifact %s: %w", k, err)
		}
		for _, t := range env.Trials {
			counts.add(t)
		}
	}
	return passOut{out: buf.Bytes(), counts: counts, parts: []part{whole}}, arts, nil
}

// cached submits each of the cached sub-sweeps in turn to the warm
// server; every artifact must be the one the warm pass stored. Each
// sub-sweep is a part.
func (sb *sweepBench) cached(tr *tracer, parent int) ([]part, error) {
	parts := make([]part, 0, len(sb.cachedSubs))
	for _, i := range sb.cachedSubs {
		start := time.Now()
		arts, err := sb.sweep(sb.warmSrv, sb.subs[i], tr, fmt.Sprintf("sub-%d", i), parent, 1)
		parts = append(parts, endPart(start))
		if err != nil {
			return nil, err
		}
		for k, blob := range arts {
			if !bytes.Equal(blob, sb.refArtifacts[k]) {
				return nil, fmt.Errorf("sub-sweep %d: artifact %s: %w", i, k, errOutputMismatch)
			}
		}
	}
	return parts, nil
}

// sweep submits one sweep, waits on its event stream for the done event,
// then fetches every cell's result artifact, keyed by cache key.
func (sb *sweepBench) sweep(srv *liveServer, body []byte, tr *tracer, req string, parent, tid int) (map[string][]byte, error) {
	h := tr.begin("submit", req, parent, tid)
	data, err := sb.call(srv, http.MethodPost, "/v1/sweeps", body)
	tr.finish(h)
	if err != nil {
		return nil, err
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}

	h = tr.begin("wait", req, parent, tid)
	counts, err := sb.awaitDone(srv, st.ID)
	tr.finish(h)
	if err != nil {
		return nil, err
	}
	if counts["done"]+counts["cached"] != len(st.Cells) {
		return nil, fmt.Errorf("job %s ended with cell states %v", st.ID, counts)
	}

	arts := make(map[string][]byte, len(st.Cells))
	for _, c := range st.Cells {
		h := tr.begin("result", req, parent, tid)
		blob, err := sb.call(srv, http.MethodGet, "/v1/results/"+c.CacheKey, nil)
		tr.finish(h)
		if err != nil {
			return nil, err
		}
		arts[c.CacheKey] = blob
	}
	return arts, nil
}

// call makes one request and returns the body of a 2xx response.
func (sb *sweepBench) call(srv *liveServer, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, srv.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := srv.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// awaitDone reads the job's server-sent events until the done event and
// returns its per-state cell counts.
func (sb *sweepBench) awaitDone(srv *liveServer, id string) (map[string]int, error) {
	resp, err := srv.client.Get(srv.url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // a snapshot frame lists every cell
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var ev server.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return nil, fmt.Errorf("events %s: decode done: %w", id, err)
			}
			return ev.Counts, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events %s: %w", id, err)
	}
	return nil, fmt.Errorf("events %s: stream ended before done", id)
}

// liveServer is one in-process sweep server behind httptest, over its own
// store and queue directory.
type liveServer struct {
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	url    string
	client *http.Client
}

func (sb *sweepBench) startServer() (*liveServer, error) {
	sb.servers++
	dir := filepath.Join(sb.dir, fmt.Sprintf("server-%d", sb.servers))
	store, err := checkpoint.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Store:   store,
		Dir:     filepath.Join(dir, "queue"),
		Workers: concurrency,
		Seed:    sb.seed,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &liveServer{
		dir: dir, srv: srv, ts: ts, url: ts.URL,
		// The timeout bounds a hung request well inside the benchmark's
		// own time limit.
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}},
	}, nil
}

// close drains the server (its executor and job monitors exit), stops
// the listener and removes the server's files.
func (l *liveServer) close() {
	l.srv.Drain()
	l.client.CloseIdleConnections()
	l.ts.Close()
	os.RemoveAll(l.dir)
}
