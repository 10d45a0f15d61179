package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"syscall"
	"testing"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
)

// TestTrialMetricsMirrorsCoreMetrics: every exported field of core.Metrics
// must have a same-named field in trialMetrics (latency recorders are
// flattened to their []int64 samples under the same name). A field added
// to core.Metrics but not to the mirror is silently zeroed whenever a
// series round-trips through the checkpoint store — the sharded and
// server paths — while in-process runs keep it, so figures diverge by
// execution mode instead of failing loudly.
func TestTrialMetricsMirrorsCoreMetrics(t *testing.T) {
	mirror := reflect.TypeOf(trialMetrics{})
	metrics := reflect.TypeOf(core.Metrics{})
	recorder := reflect.TypeOf(&stats.LatencyRecorder{})
	samples := reflect.TypeOf([]int64(nil))
	for i := 0; i < metrics.NumField(); i++ {
		f := metrics.Field(i)
		m, ok := mirror.FieldByName(f.Name)
		if !ok {
			t.Errorf("core.Metrics.%s has no trialMetrics mirror: checkpointed series drop it", f.Name)
			continue
		}
		want := f.Type
		if want == recorder {
			want = samples
		}
		if m.Type != want {
			t.Errorf("trialMetrics.%s is %v, want %v", f.Name, m.Type, want)
		}
	}
}

// TestCheckpointRoundTripPreservesFileCache: a series with page-cache
// counters must survive encode→decode→encode byte-identically — the
// regression behind the ext2 sharded run rendering zeroed refault and
// writeback columns.
func TestCheckpointRoundTripPreservesFileCache(t *testing.T) {
	s := &Series{
		Workload: "serve",
		Policy:   PolMGLRU,
		System:   SystemAt(0.5, core.SwapSSD),
		Trials: []core.Metrics{{
			Runtime:        12345,
			FootprintPages: 100,
			CapacityPages:  50,
			ReadLat:        recorderOf([]int64{10, 20}),
			WriteLat:       recorderOf(nil),
			FaultLat:       recorderOf([]int64{30}),
			FileCache: pagecache.Stats{
				Reads: 7, ReadaheadReads: 3, Dirtied: 5,
				FlushPasses: 2, Extents: 4, WritebackPages: 9,
				PageOuts: 1, Evictions: 6, Refaults: 8,
				FileIOErrors: 2, PoisonedFaults: 4, ReadaheadAborts: 1,
				WriteErrors: 3, DataAtRisk: 3,
				ThrottleStalls: 5, ThrottleStallTime: 777,
			},
			FileDevice: swap.Stats{Reads: 11, Writes: 13},
			FileInjected: fault.Stats{
				Storms: 2, StormDelay: 999, TransientReadErrors: 4,
				HardWriteErrors: 1, PrefetchErrors: 6,
			},
		}},
	}
	blob, err := encodeSeries("k", s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeSeries("k", blob)
	if !ok {
		t.Fatal("decode rejected a freshly encoded envelope")
	}
	if got.Trials[0].FileCache != s.Trials[0].FileCache {
		t.Fatalf("FileCache dropped: %+v, want %+v", got.Trials[0].FileCache, s.Trials[0].FileCache)
	}
	if got.Trials[0].FileDevice != s.Trials[0].FileDevice {
		t.Fatalf("FileDevice dropped: %+v, want %+v", got.Trials[0].FileDevice, s.Trials[0].FileDevice)
	}
	if got.Trials[0].FileInjected != s.Trials[0].FileInjected {
		t.Fatalf("FileInjected dropped: %+v, want %+v", got.Trials[0].FileInjected, s.Trials[0].FileInjected)
	}
	blob2, err := encodeSeries("k", got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("round-trip not byte-stable")
	}
}

// TestSummarizeSeriesBlobMatchesDecode: for every artifact of a small
// warmed store, the single-parse SummarizeSeriesBlob equals the summary
// of the series decodeSeries restores, and reports the key the artifact
// was filed under. A wrong-version copy of each artifact is rejected by
// both paths.
func TestSummarizeSeriesBlobMatchesDecode(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Trials: 2, Scale: 0.1, Seed: 0xABC, Checkpoint: store}
	r := NewRunner(opts)
	ws := []WorkloadSpec{WorkloadByName("ycsb-c", opts.Scale), WorkloadByName("tpch", opts.Scale)}
	ps := []PolicySpec{PolicyByName(PolClock), PolicyByName(PolMGLRU)}
	sys := SystemAt(0.5, core.SwapZRAM)
	cells := r.MatrixCells(ws, ps, sys)
	if _, err := r.RunMatrix(ws, ps, sys); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(cells) || len(cells) != 4 {
		t.Fatalf("store holds %d artifacts for %d cells, want 4", store.Len(), len(cells))
	}
	for _, c := range cells {
		blob, ok := store.Get(c.Key)
		if !ok {
			t.Fatalf("cell %s/%s missing from the store", c.Workload, c.Policy)
		}
		sum, key, ok := SummarizeSeriesBlob(blob)
		if !ok {
			t.Fatalf("cell %s/%s: stored artifact rejected", c.Workload, c.Policy)
		}
		if key != c.Key {
			t.Fatalf("cell %s/%s: embedded key %q, want %q", c.Workload, c.Policy, key, c.Key)
		}
		s, ok := decodeSeries(c.Key, blob)
		if !ok {
			t.Fatalf("cell %s/%s: decodeSeries rejected the artifact", c.Workload, c.Policy)
		}
		if want := summarize(s); sum != want {
			t.Fatalf("cell %s/%s: summary %+v, decodeSeries gives %+v", c.Workload, c.Policy, sum, want)
		}
		if sum.Trials != opts.Trials || sum.MeanRuntimeSec <= 0 {
			t.Fatalf("cell %s/%s: implausible summary %+v", c.Workload, c.Policy, sum)
		}

		stale := bytes.Replace(blob, []byte(`"Version":1,`), []byte(`"Version":2,`), 1)
		if bytes.Equal(stale, blob) {
			t.Fatal("artifact does not lead with the version field")
		}
		if _, _, ok := SummarizeSeriesBlob(stale); ok {
			t.Fatalf("cell %s/%s: wrong-version artifact summarized", c.Workload, c.Policy)
		}
		if _, ok := decodeSeries(c.Key, stale); ok {
			t.Fatalf("cell %s/%s: wrong-version artifact decoded", c.Workload, c.Policy)
		}
	}
}

// TestFencedPublicationFailureFailsSeries: under a publication fence (a
// shard lease) a store write error fails the series and drops it from
// the runner's memo, so the next Run re-executes and publishes. Without
// a fence the same error stays a best-effort progress note.
func TestFencedPublicationFailureFailsSeries(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		blip := true
		store.SetHook(func(op, path string) error {
			if op == "store.put-verify" && blip {
				blip = false
				return syscall.ESTALE
			}
			return nil
		})
		r := NewRunner(Options{Trials: 1, Scale: 0.1, Seed: 0xABC, Checkpoint: store, Parallelism: 1})
		if fenced {
			r.SetFence(func(string) error { return nil })
		}
		w, p, sys := WorkloadByName("ycsb-c", 0.1), PolicyByName(PolFIFO), SystemAt(0.5, core.SwapSSD)
		_, err = r.Run(w, p, sys)
		if fenced != errors.Is(err, syscall.ESTALE) {
			t.Fatalf("fenced=%v: first Run = %v", fenced, err)
		}
		if _, err := r.Run(w, p, sys); err != nil {
			t.Fatalf("fenced=%v: second Run = %v", fenced, err)
		}
		// The fenced retry re-executed and published; the unfenced series
		// was memoized after its lost write and never wrote again.
		want := 0
		if fenced {
			want = 1
		}
		if got := store.Len(); got != want {
			t.Fatalf("fenced=%v: store holds %d entries, want %d", fenced, got, want)
		}
	}
}
