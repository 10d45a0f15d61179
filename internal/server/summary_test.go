package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
)

// warmStore executes smallSweep on a throwaway server and returns the
// store holding its artifacts and the sweep's cells, with that server
// drained.
func warmStore(t *testing.T) (*checkpoint.Store, []experiments.CellSpec) {
	t.Helper()
	store := openStore(t)
	srv, ts := startServer(t, fastServerCfg(t, store, 2))
	_, st, aerr := postSweep(t, ts, smallSweep)
	if aerr != nil {
		t.Fatal(aerr)
	}
	waitJob(t, ts, st.ID)
	srv.Drain()
	j, _ := srv.jobByID(st.ID)
	return store, j.cells
}

// countReads installs a store I/O hook counting reads per entry hash.
func countReads(store *checkpoint.Store) func() map[string]int {
	var mu sync.Mutex
	reads := map[string]int{}
	store.SetHook(func(op, path string) error {
		if op == "store.read" {
			mu.Lock()
			reads[strings.TrimSuffix(filepath.Base(path), ".json")]++
			mu.Unlock()
		}
		return nil
	})
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(reads))
		for h, n := range reads {
			out[h] = n
		}
		return out
	}
}

// TestViewReadsEachArtifactOnce: however many times a done job is viewed
// (status requests, SSE snapshots, direct views, the monitor) and however
// many jobs overlap it, each stored artifact is read from disk once per
// server process — for executor-backed jobs and for the static jobs of a
// read-only server alike.
func TestViewReadsEachArtifactOnce(t *testing.T) {
	store, _ := warmStore(t)
	// fifo at both ratios: a distinct job sharing two of smallSweep's cells.
	const overlap = `{"workloads":["ycsb-c"],"policies":["fifo"],"ratios":[0.5,0.9],"trials":1,"scale":0.1}`
	for _, readOnly := range []bool{false, true} {
		name := "writable"
		if readOnly {
			name = "read-only"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fastServerCfg(t, store, 2)
			cfg.ReadOnly = readOnly
			srv, ts := startServer(t, cfg)
			reads := countReads(store) // a fresh hook: counts this server's reads only

			_, st, aerr := postSweep(t, ts, smallSweep)
			if aerr != nil {
				t.Fatal(aerr)
			}
			j, _ := srv.jobByID(st.ID)
			for i := 0; i < 5; i++ {
				getJob(t, ts, st.ID)
				srv.view(j)
				sseSnapshot(t, ts, st.ID)
			}
			_, st2, aerr := postSweep(t, ts, smallSweep) // deduplicated onto j
			if aerr != nil || st2.ID != st.ID {
				t.Fatalf("resubmit: job %q err %v, want dedup onto %q", st2.ID, aerr, st.ID)
			}
			_, ov, aerr := postSweep(t, ts, overlap)
			if aerr != nil {
				t.Fatal(aerr)
			}
			done := waitJob(t, ts, ov.ID)
			final := waitJob(t, ts, st.ID)

			for _, cv := range append(final.Cells, done.Cells...) {
				if cv.Status != "cached" || cv.Summary == nil || cv.Summary.Trials != 1 {
					t.Fatalf("cell %s/%s@%v = %+v, want cached with a 1-trial summary",
						cv.Workload, cv.Policy, cv.Ratio, cv)
				}
			}
			got := reads()
			if len(got) != smallSweepCells {
				t.Fatalf("read %d distinct artifacts, want %d: %v", len(got), smallSweepCells, got)
			}
			for _, cv := range final.Cells {
				if n := got[cv.CacheKey]; n != 1 {
					t.Errorf("artifact of %s/%s@%v read %d times, want 1", cv.Workload, cv.Policy, cv.Ratio, n)
				}
			}
		})
	}
}

// sseSnapshot opens a job's event stream and returns once the snapshot
// frame has arrived.
func sseSnapshot(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: snapshot" && sc.Scan() && strings.HasPrefix(sc.Text(), "data: ") {
			return
		}
	}
	t.Fatalf("event stream of job %s ended without a snapshot", id)
}

// TestSummaryNotMemoizedOnFailure: an artifact that fails to decode shows
// no summary and is tried again on the next view; so does an artifact
// filed under the cell's key that carries another cell's key. Once the
// cell's own artifact is in place, the view shows its summary.
func TestSummaryNotMemoizedOnFailure(t *testing.T) {
	store, cells := warmStore(t)
	target, other := cells[0], cells[0]
	for _, c := range cells {
		if c.Policy != target.Policy {
			other = c
			break
		}
	}
	good, ok := store.Get(target.Key)
	if !ok {
		t.Fatal("warm store misses a cell")
	}
	otherBlob, _ := store.Get(other.Key)
	if err := store.Put(target.Key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, fastServerCfg(t, store, 1))
	hash := checkpoint.KeyHash(target.Key)
	summaryOf := func(st JobStatus) *experiments.SeriesSummary {
		t.Helper()
		for _, cv := range st.Cells {
			if cv.CacheKey == hash {
				if cv.Status != "cached" {
					t.Fatalf("target cell status %q, want cached", cv.Status)
				}
				return cv.Summary
			}
		}
		t.Fatal("target cell missing from the job")
		return nil
	}
	_, st, aerr := postSweep(t, ts, smallSweep)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if sum := summaryOf(st); sum != nil {
		t.Fatalf("invalid artifact summarized: %+v", sum)
	}
	if sum := summaryOf(getJob(t, ts, st.ID)); sum != nil {
		t.Fatalf("invalid artifact summarized on a later view: %+v", sum)
	}

	if err := store.Put(target.Key, otherBlob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if sum := summaryOf(getJob(t, ts, st.ID)); sum != nil {
			t.Fatalf("view %d: another cell's artifact summarized as %+v", i, sum)
		}
	}

	if err := store.Put(target.Key, good); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sum := summaryOf(getJob(t, ts, st.ID))
		if sum == nil || sum.Policy != target.Policy || sum.Trials != 1 {
			t.Fatalf("view %d after the artifact was repaired: summary %+v, want policy %s", i, sum, target.Policy)
		}
	}
}

// TestSummaryOfForeignArtifactIsAbsent: a store entry whose blob carries
// another cell's key yields no summary, and nothing is memoized for it,
// however often it is asked for.
func TestSummaryOfForeignArtifactIsAbsent(t *testing.T) {
	store := openStore(t)
	r := experiments.NewRunner(experiments.Options{Trials: 1, Scale: 0.02, Seed: testSeed, Checkpoint: store})
	ws := []experiments.WorkloadSpec{experiments.WorkloadByName("ycsb-c", 0.02)}
	ps := []experiments.PolicySpec{experiments.PolicyByName(experiments.PolFIFO), experiments.PolicyByName(experiments.PolClock)}
	sys := experiments.SystemAt(0.5, core.SwapSSD)
	cells := r.MatrixCells(ws, ps, sys)
	if _, err := r.RunMatrix(ws, ps, sys); err != nil {
		t.Fatal(err)
	}
	target, other := cells[0], cells[1]
	foreign, ok := store.Get(other.Key)
	if !ok {
		t.Fatal("warm store misses a cell")
	}
	if err := store.Put(target.Key, foreign); err != nil {
		t.Fatal(err)
	}
	sums := summaries{m: map[string]experiments.SeriesSummary{}}
	for i := 0; i < 2; i++ {
		if sum, ok := sums.get(store, target.Key); ok {
			t.Fatalf("call %d: another cell's artifact summarized as %+v", i, sum)
		}
	}
	if len(sums.m) != 0 {
		t.Fatalf("memo holds %d summaries after foreign artifacts only", len(sums.m))
	}
	if sum, ok := sums.get(store, other.Key); !ok || sum.Policy != other.Policy {
		t.Fatalf("the cell's own artifact: summary %+v, ok=%v; want policy %s", sum, ok, other.Policy)
	}
}

// TestConcurrentViews: status requests, event streams and direct views
// race the monitor over a cold job's summaries (run under -race), and
// every surface ends with a summary on every cell.
func TestConcurrentViews(t *testing.T) {
	store := openStore(t)
	srv, ts := startServer(t, fastServerCfg(t, store, 2))
	_, st, aerr := postSweep(t, ts, smallSweep)
	if aerr != nil {
		t.Fatal(aerr)
	}
	j, _ := srv.jobByID(st.ID)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func() { // status
			defer wg.Done()
			for !j.done() {
				resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(time.Millisecond)
			}
		}()
		go func() { // events, to the done frame
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		go func() { // direct views
			defer wg.Done()
			for !j.done() {
				srv.view(j)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	done := waitJob(t, ts, st.ID)
	wg.Wait()
	for _, cv := range done.Cells {
		if cv.Status != "done" || cv.Summary == nil || cv.Summary.Trials != 1 {
			t.Fatalf("cell %s/%s@%v = %+v, want done with a 1-trial summary", cv.Workload, cv.Policy, cv.Ratio, cv)
		}
	}
}
