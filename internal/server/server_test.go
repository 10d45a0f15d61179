package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/experiments"
	"mglrusim/internal/shard"
	"mglrusim/internal/telemetry"
)

// smallSweep is the gauntlet's standard submission: 1 workload × 2
// policies × 2 ratios = 4 cells, 1 trial at 0.1 scale, fast enough to
// execute cold in every test.
const smallSweep = `{"workloads":["ycsb-c"],"policies":["fifo","random"],"ratios":[0.5,0.9],"trials":1,"scale":0.1}`

const smallSweepCells = 4

const testSeed = 0xABC

func fastServerCfg(t *testing.T, store *checkpoint.Store, workers int) Config {
	t.Helper()
	// The 60s TTL keeps heartbeat starvation under full-suite load from
	// masquerading as a crashed worker — these tests assert exact
	// lease-expiry and completion counters.
	return Config{
		Store:        store,
		Dir:          filepath.Join(t.TempDir(), "queue"),
		Workers:      workers,
		Seed:         testSeed,
		ShardTTL:     60 * time.Second,
		ShardBackoff: 10 * time.Millisecond,
		ShardPoll:    10 * time.Millisecond,
		MonitorPoll:  10 * time.Millisecond,
		Counters:     telemetry.NewCounterSet(),
	}
}

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// postSweep submits a body and decodes the response, whatever its shape.
func postSweep(t *testing.T, ts *httptest.Server, body string) (int, JobStatus, *apiError) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode >= 400 {
		var ae apiError
		if err := json.Unmarshal(buf.Bytes(), &ae); err != nil {
			t.Fatalf("status %d with undecodable error body %q", resp.StatusCode, buf.String())
		}
		return resp.StatusCode, JobStatus{}, &ae
	}
	var st JobStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("status %d with undecodable job body %q", resp.StatusCode, buf.String())
	}
	return resp.StatusCode, st, nil
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getJob(t, ts, id)
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchArtifacts pulls every cell's artifact through the results
// endpoint, keyed by cache key.
func fetchArtifacts(t *testing.T, ts *httptest.Server, st JobStatus) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, cv := range st.Cells {
		resp, err := http.Get(ts.URL + "/v1/results/" + cv.CacheKey)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET result %s: status %d", cv.CacheKey, resp.StatusCode)
		}
		out[cv.CacheKey] = buf.Bytes()
	}
	return out
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerCacheVsCold is the acceptance e2e: the same sweep submitted
// cold on two independent servers produces byte-identical artifacts, and
// resubmitted against a warm store it answers entirely from cache (the
// hit counter proves >= 90% — here 100% — of cells never execute) with
// exactly the same bytes.
func TestServerCacheVsCold(t *testing.T) {
	store1 := openStore(t)
	_, ts1 := startServer(t, fastServerCfg(t, store1, 2))
	code, st, aerr := postSweep(t, ts1, smallSweep)
	if aerr != nil || code != http.StatusAccepted {
		t.Fatalf("cold submit: code %d err %v", code, aerr)
	}
	if len(st.Cells) != smallSweepCells {
		t.Fatalf("sweep expanded to %d cells, want %d", len(st.Cells), smallSweepCells)
	}
	done1 := waitJob(t, ts1, st.ID)
	cold1 := fetchArtifacts(t, ts1, done1)
	for _, cv := range done1.Cells {
		if cv.Status != "done" {
			t.Fatalf("cold cell %s/%s status %q, want done", cv.Workload, cv.Policy, cv.Status)
		}
		if cv.Summary == nil || cv.Summary.Trials != 1 {
			t.Fatalf("cold cell missing summary: %+v", cv)
		}
	}

	// An independent cold run on a second server: determinism means the
	// artifact bytes agree exactly.
	store2 := openStore(t)
	_, ts2 := startServer(t, fastServerCfg(t, store2, 3))
	_, st2, _ := postSweep(t, ts2, smallSweep)
	cold2 := fetchArtifacts(t, ts2, waitJob(t, ts2, st2.ID))
	if len(cold2) != len(cold1) {
		t.Fatalf("cold runs disagree on artifact count: %d vs %d", len(cold2), len(cold1))
	}
	for key, blob := range cold1 {
		if !bytes.Equal(cold2[key], blob) {
			t.Fatalf("cold runs diverge on artifact %s", key)
		}
	}

	// A third server over the warm store: the whole sweep is a cache hit.
	srv3, ts3 := startServer(t, fastServerCfg(t, store1, 2))
	code, st3, aerr := postSweep(t, ts3, smallSweep)
	if aerr != nil || code != http.StatusAccepted {
		t.Fatalf("warm submit: code %d err %v", code, aerr)
	}
	done3 := waitJob(t, ts3, st3.ID)
	for _, cv := range done3.Cells {
		if cv.Status != "cached" {
			t.Fatalf("warm cell %s/%s status %q, want cached", cv.Workload, cv.Policy, cv.Status)
		}
	}
	cachedCells := srv3.Counters().Get("server.cells.cached")
	coldCells := srv3.Counters().Get("server.cells.cold")
	if total := cachedCells + coldCells; total == 0 || cachedCells*10 < total*9 {
		t.Fatalf("warm submission cache rate %d/%d below 90%%", cachedCells, total)
	}
	if got := srv3.Counters().Get("cells.completed"); got != 0 {
		t.Fatalf("warm submission executed %d cells", got)
	}
	warm := fetchArtifacts(t, ts3, done3)
	for key, blob := range cold1 {
		if !bytes.Equal(warm[key], blob) {
			t.Fatalf("cached artifact %s differs from the cold bytes", key)
		}
	}
}

// TestServerSingleflight: 8 clients submitting the identical sweep
// concurrently share one job and one execution.
func TestServerSingleflight(t *testing.T) {
	store := openStore(t)
	srv, ts := startServer(t, fastServerCfg(t, store, 3))

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smallSweep))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %s, client 0 got %s", i, ids[i], ids[0])
		}
	}
	if got := srv.Counters().Get("server.sweeps.submitted"); got != 1 {
		t.Fatalf("server.sweeps.submitted = %d, want 1", got)
	}
	if got := srv.Counters().Get("server.sweeps.deduped"); got != clients-1 {
		t.Fatalf("server.sweeps.deduped = %d, want %d", got, clients-1)
	}

	waitJob(t, ts, ids[0])
	srv.Drain() // settle in-flight counter adds before asserting
	if got := srv.Counters().Get("cells.completed"); got != smallSweepCells {
		t.Fatalf("cells.completed = %d, want %d (one execution for %d clients)",
			got, smallSweepCells, clients)
	}
	if store.Len() != smallSweepCells {
		t.Fatalf("store holds %d artifacts, want %d", store.Len(), smallSweepCells)
	}
}

// TestServerCrashedWorkerRecovery: a cell whose previous attempt died
// mid-execution (running flag on disk, lease gone) is requeued and the
// job still completes with no lost or duplicated cells.
func TestServerCrashedWorkerRecovery(t *testing.T) {
	store := openStore(t)
	cfg := fastServerCfg(t, store, 2)

	// Enumerate exactly as the server will, and plant the crash residue in
	// its queue directory before it starts.
	c, aerr := ParseSweepRequest(strings.NewReader(smallSweep), cfg.Limits)
	if aerr != nil {
		t.Fatal(aerr)
	}
	cells, err := experiments.SweepCells(c.Options(testSeed), c.SweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.SimulateCrashedAttempt(cfg.Dir, cells[0]); err != nil {
		t.Fatal(err)
	}

	srv, ts := startServer(t, cfg)
	_, st, aerr2 := postSweep(t, ts, smallSweep)
	if aerr2 != nil {
		t.Fatal(aerr2)
	}
	done := waitJob(t, ts, st.ID)
	srv.Drain() // settle in-flight counter adds before asserting
	for _, cv := range done.Cells {
		if cv.Status != "done" {
			t.Fatalf("cell %s/%s status %q after crash recovery", cv.Workload, cv.Policy, cv.Status)
		}
	}
	if got := srv.Counters().Get("leases.expired"); got != 1 {
		t.Fatalf("leases.expired = %d, want 1 (the planted crash)", got)
	}
	if got := srv.Counters().Get("cells.requeued"); got != 1 {
		t.Fatalf("cells.requeued = %d, want 1", got)
	}
	if got := srv.Counters().Get("cells.completed"); got != int64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d (no lost or duplicated cells)", got, len(cells))
	}
}

// TestServerDrainUnderLoad: SIGTERM semantics — draining mid-sweep
// finishes in-flight cells, rejects new submissions with 503, leaves the
// store consistent (every entry a complete, decodable artifact), and a
// fresh server over the same directories finishes the job.
func TestServerDrainUnderLoad(t *testing.T) {
	store := openStore(t)
	cfg := fastServerCfg(t, store, 1)
	srv1, ts1 := startServer(t, cfg)
	_, st, aerr := postSweep(t, ts1, smallSweep)
	if aerr != nil {
		t.Fatal(aerr)
	}
	time.Sleep(30 * time.Millisecond) // let execution start
	srv1.Drain()

	if code, _, ae := postSweep(t, ts1, smallSweep); code != http.StatusServiceUnavailable || ae == nil || ae.Code != "draining" {
		t.Fatalf("submit while draining: code %d err %+v, want 503/draining", code, ae)
	}
	if resp, err := http.Get(ts1.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
		}
	}
	// Store consistency at the drain point: nothing torn.
	for _, h := range store.Hashes() {
		blob, ok := store.GetHash(h)
		if !ok {
			t.Fatalf("listed artifact %s unreadable after drain", h)
		}
		if _, _, ok := experiments.SummarizeSeriesBlob(blob); !ok {
			t.Fatalf("artifact %s does not decode after drain", h)
		}
	}

	// A fresh server over the same store and queue directory resumes.
	srv2, ts2 := startServer(t, Config{
		Store: store, Dir: cfg.Dir, Workers: 2, Seed: testSeed,
		ShardTTL: cfg.ShardTTL, ShardBackoff: cfg.ShardBackoff, ShardPoll: cfg.ShardPoll,
		MonitorPoll: cfg.MonitorPoll, Counters: telemetry.NewCounterSet(),
	})
	_, st2, aerr2 := postSweep(t, ts2, smallSweep)
	if aerr2 != nil {
		t.Fatal(aerr2)
	}
	if st2.ID != st.ID {
		t.Fatalf("resumed job id %s, want %s (content-addressed identity)", st2.ID, st.ID)
	}
	waitJob(t, ts2, st2.ID)
	srv2.Drain()
	if store.Len() != smallSweepCells {
		t.Fatalf("store holds %d artifacts after resume, want %d", store.Len(), smallSweepCells)
	}
	executed := srv1.Counters().Get("cells.completed") + srv2.Counters().Get("cells.completed")
	if executed != smallSweepCells {
		t.Fatalf("cells executed across drain+resume = %d, want %d (none lost, none repeated)",
			executed, smallSweepCells)
	}
}

// TestServerSSE: the events stream opens with a snapshot, reports cell
// transitions, and terminates with a done event when the job resolves.
func TestServerSSE(t *testing.T) {
	store := openStore(t)
	_, ts := startServer(t, fastServerCfg(t, store, 1))
	_, st, aerr := postSweep(t, ts, smallSweep)
	if aerr != nil {
		t.Fatal(aerr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweeps/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	if events[0] != "snapshot" {
		t.Fatalf("first event %q, want snapshot", events[0])
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("last event %q, want done (got sequence %v)", events[len(events)-1], events)
	}
	for _, ev := range events[1 : len(events)-1] {
		if ev != "cell" {
			t.Fatalf("unexpected mid-stream event %q in %v", ev, events)
		}
	}
}

// TestServerLookupMisses: unknown job ids and artifact hashes are clean
// structured 404s, and stats reflects reality.
func TestServerLookupMisses(t *testing.T) {
	store := openStore(t)
	srv, ts := startServer(t, fastServerCfg(t, store, 1))

	for _, path := range []string{"/v1/sweeps/sw-nope", "/v1/results/feedfacefeedface"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 404 {
			t.Fatalf("GET %s: status %d decode err %v", path, resp.StatusCode, err)
		}
	}
	// Path traversal through the results endpoint never reaches the disk.
	resp, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("..%2f", 4) + "etc%2fpasswd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("traversal path served a 200")
	}
	if got := srv.Counters().Get("server.results.served"); got != 0 {
		t.Fatalf("server.results.served = %d, want 0", got)
	}

	stats := getStats(t, ts)
	if stats.Jobs != 0 || stats.QueueDepth != 0 || stats.Draining {
		t.Fatalf("idle stats = %+v", stats)
	}
	if stats.Workers != 1 {
		t.Fatalf("stats.Workers = %d, want 1", stats.Workers)
	}
}

// TestServerBackpressure: a sweep whose cold cells exceed the queue
// bound is rejected with 429 and never creates a job.
func TestServerBackpressure(t *testing.T) {
	store := openStore(t)
	cfg := fastServerCfg(t, store, 1)
	cfg.QueueBound = 2 // smaller than the 4-cell sweep
	srv, ts := startServer(t, cfg)

	code, _, ae := postSweep(t, ts, smallSweep)
	if code != http.StatusTooManyRequests || ae == nil || ae.Code != "queue-full" {
		t.Fatalf("over-bound submit: code %d err %+v, want 429/queue-full", code, ae)
	}
	if got := srv.Counters().Get("server.rejected.backpressure"); got != 1 {
		t.Fatalf("server.rejected.backpressure = %d, want 1", got)
	}
	if stats := getStats(t, ts); stats.Jobs != 0 {
		t.Fatalf("rejected sweep created a job: %+v", stats)
	}
	if store.Len() != 0 {
		t.Fatalf("rejected sweep executed cells: store has %d entries", store.Len())
	}
}

// TestReadOnlyDegradedMode: a read-only server serves fully-cached
// sweeps as instantly-done static jobs and refuses anything that would
// need execution with an actionable 503, while healthz and /v1/stats
// advertise the degraded mode.
func TestReadOnlyDegradedMode(t *testing.T) {
	// Warm a store with the sweep's cells via a normal writable server.
	store := openStore(t)
	_, warmTS := startServer(t, fastServerCfg(t, store, 2))
	code, st, aerr := postSweep(t, warmTS, smallSweep)
	if aerr != nil {
		t.Fatalf("warm submit: %d %v", code, aerr)
	}
	waitJob(t, warmTS, st.ID)

	// A read-only server over the same store.
	roCfg := fastServerCfg(t, store, 1)
	roCfg.ReadOnly = true
	roSrv, roTS := startServer(t, roCfg)

	// healthz: 200 but explicitly degraded.
	resp, err := http.Get(roTS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != 200 || health["status"] != "degraded-read-only" {
		t.Fatalf("healthz = %d %v, want 200 degraded-read-only", resp.StatusCode, health)
	}

	// Fully-cached sweep: served, already done, every cell cached.
	code, st, aerr = postSweep(t, roTS, smallSweep)
	if aerr != nil || code != 200 {
		t.Fatalf("cached submit on read-only server: %d %v", code, aerr)
	}
	if st.State != "done" {
		t.Fatalf("read-only cached job state = %q, want done", st.State)
	}
	if st.Counts["cached"] != smallSweepCells {
		t.Fatalf("read-only cached counts = %v, want %d cached", st.Counts, smallSweepCells)
	}
	// Status and results endpoints work for the static job.
	got := getJob(t, roTS, st.ID)
	if got.State != "done" {
		t.Fatalf("static job status = %q, want done", got.State)
	}
	resp, err = http.Get(roTS.URL + "/v1/results/" + st.Cells[0].CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("result fetch on read-only server = %d, want 200", resp.StatusCode)
	}

	// A sweep with cold cells: refused with 503 degraded-read-only.
	cold := `{"workloads":["ycsb-c"],"policies":["clock"],"ratios":[0.5],"trials":1,"scale":0.1}`
	code, _, aerr = postSweep(t, roTS, cold)
	if code != http.StatusServiceUnavailable || aerr == nil || aerr.Code != "degraded-read-only" {
		t.Fatalf("cold submit on read-only server = %d %v, want 503 degraded-read-only", code, aerr)
	}
	if roSrv.Counters().Get("server.rejected.readonly") != 1 {
		t.Fatalf("server.rejected.readonly = %d, want 1", roSrv.Counters().Get("server.rejected.readonly"))
	}

	// Stats advertises the fleet section with the degraded flag.
	resp, err = http.Get(roTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if !stats.Fleet.ReadOnly {
		t.Fatalf("stats.fleet.readOnly = false, want true (stats %+v)", stats)
	}
}

// TestAutoDegradeUnwritableDir: a server pointed at an unwritable queue
// directory degrades to read-only automatically instead of failing every
// submission at claim time.
func TestAutoDegradeUnwritableDir(t *testing.T) {
	store := openStore(t)
	cfg := fastServerCfg(t, store, 1)
	if err := os.MkdirAll(cfg.Dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(cfg.Dir, 0o755) })
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions do not restrict writes")
	}
	srv, _ := startServer(t, cfg)
	if !srv.readOnly.Load() {
		t.Fatal("server did not auto-degrade on unwritable queue dir")
	}
}

// TestFleetStatsSurfacesCoordinationCounters: the /v1/stats fleet
// section reflects the shard executor's coordination counters.
func TestFleetStatsSurfacesCoordinationCounters(t *testing.T) {
	store := openStore(t)
	cfg := fastServerCfg(t, store, 2)
	cfg.MaxSkew = 5 * time.Second
	srv, ts := startServer(t, cfg)
	code, st, aerr := postSweep(t, ts, smallSweep)
	if aerr != nil {
		t.Fatalf("submit: %d %v", code, aerr)
	}
	waitJob(t, ts, st.ID)
	// A job reads done once its cells are in the store, a beat before the
	// executing worker adds to its counters; draining settles those adds.
	// /v1/stats still serves while draining.
	srv.Drain()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Fleet.MaxSkew != "5s" {
		t.Fatalf("stats.fleet.maxSkew = %q, want 5s", stats.Fleet.MaxSkew)
	}
	if stats.Fleet.ReadOnly {
		t.Fatal("writable server reports readOnly")
	}
	// A healthy single-process run steals and fences nothing.
	if stats.Fleet.LeasesStolen != 0 || stats.Fleet.CellsFenced != 0 {
		t.Fatalf("healthy run shows steals/fences: %+v", stats.Fleet)
	}
	if stats.Counters["cells.completed"] != smallSweepCells {
		t.Fatalf("cells.completed = %d, want %d", stats.Counters["cells.completed"], smallSweepCells)
	}
}
