package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
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
// flattened to their raw []int64 samples under the same name). A field added
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
			ReadLat:        stats.NewLatencyRecorderFrom([]int64{10, 20}),
			WriteLat:       stats.NewLatencyRecorderFrom(nil),
			FaultLat:       stats.NewLatencyRecorderFrom([]int64{30}),
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

// FuzzLatencySamples: parseSamples, the parser of a checkpointed latency
// sample array, agrees with encoding/json's reflect decode into []int64
// on every valid JSON input, read as accepted when the array is all the
// input holds apart from whitespace. Whatever it accepts, encoding/json
// accepts with equal values; whatever it rejects, encoding/json rejects
// too, except for the inputs onlyReflectAccepts names, and it accepts
// nothing that is not valid JSON. Independently, any []int64 (the fuzz
// bytes read as little-endian words) survives json.Marshal and
// parseSamples unchanged.
func FuzzLatencySamples(f *testing.F) {
	for _, s := range []string{
		`null`, `[]`, ` [ ] `, `[0]`, `[-0]`, `[1,2,3]`, `[-1,-25]`, "[\t1 ,\n-2\r]",
		`[9223372036854775807,-9223372036854775808]`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[18446744073709551616]`,
		`[1.5]`, `[1e3]`, `[1E3]`, `[0.0]`, `["7"]`, `[null]`, `[1,null]`,
		`[[1]]`, `[{}]`, `[true]`, `{}`, `7`, `"x"`, `true`,
		`[1]x`, `[1]]`, `nullx`, `[1,]`, `[,1]`, `[1 2]`, `[01]`, `[-]`, `[1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		blob, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		rt, end, ok := parseSamples(blob, 0)
		if !ok || end != len(blob) {
			t.Fatalf("marshaled samples %s rejected: ok=%v, end %d of %d", blob, ok, end, len(blob))
		}
		if !reflect.DeepEqual(rt, vals) {
			t.Fatalf("marshaled samples %s decode to %v, want %v", blob, rt, vals)
		}

		got, end, ok := parseSamples(data, 0)
		accepted := ok && skipJSONSpace(data, end) == len(data)
		if accepted && !json.Valid(data) {
			t.Fatalf("accepted %q, which is not valid JSON", data)
		}
		if !json.Valid(data) {
			return
		}
		var want []int64
		wantErr := json.Unmarshal(data, &want)
		switch {
		case accepted && wantErr != nil:
			t.Fatalf("accepted %q, which encoding/json rejects: %v", data, wantErr)
		case accepted && !reflect.DeepEqual(got, want):
			t.Fatalf("%q decodes to %#v, encoding/json gives %#v", data, got, want)
		case !accepted && wantErr == nil:
			for _, e := range onlyReflectAccepts {
				if e.match(data) {
					return
				}
			}
			t.Fatalf("rejected %q, which encoding/json accepts as %v", data, want)
		}
	})
}

// onlyReflectAccepts names the inputs encoding/json decodes into []int64
// that the sample decoder may reject. The encoder never writes them.
var onlyReflectAccepts = []struct {
	name  string
	match func(data []byte) bool
}{
	// encoding/json leaves a null element at zero.
	{"null element", func(data []byte) bool {
		var ptrs []*int64
		return json.Unmarshal(data, &ptrs) == nil && slices.Contains(ptrs, nil)
	}},
}

// reflectDecodeSeries is decodeSeries as it was when every sample array
// went through encoding/json's reflect decode into []int64 and each
// sample was re-recorded one at a time: the reference the sample decoder
// is held to. The outer sample fields shadow trialMetrics' own, so
// encoding/json fills them and everything else as decodeSeries does.
func reflectDecodeSeries(data []byte) (*Series, string, bool) {
	var env struct {
		seriesEnvelope
		Trials []struct {
			trialMetrics
			ReadLat, WriteLat, FaultLat []int64
		}
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Version != checkpointVersion {
		return nil, "", false
	}
	record := func(samples []int64) *stats.LatencyRecorder {
		l := stats.NewLatencyRecorder(len(samples))
		for _, v := range samples {
			l.Record(v)
		}
		return l
	}
	env.seriesEnvelope.Trials = make([]trialMetrics, len(env.Trials))
	for i, t := range env.Trials {
		env.seriesEnvelope.Trials[i] = t.trialMetrics
	}
	s := env.seriesEnvelope.series()
	for i, t := range env.Trials {
		s.Trials[i].ReadLat = record(t.ReadLat)
		s.Trials[i].WriteLat = record(t.WriteLat)
		s.Trials[i].FaultLat = record(t.FaultLat)
	}
	return s, env.Key, true
}

// TestDecodeSeriesMatchesReflectDecode: over a store warmed with every
// paper figure and the two page-cache extensions, decodeSeries restores
// exactly the series the reflect decode does, and SummarizeSeriesBlob
// reports the same summary and key, for every artifact.
func TestDecodeSeriesMatchesReflectDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: warms a store with the full figure matrix")
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{Trials: 2, Scale: 0.2, Seed: 0x5EED, Parallelism: 2, Checkpoint: store})
	for _, id := range FigureIDs() {
		if _, err := Figures[id](r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, id := range []string{"ext2", "ext3"} {
		if _, err := Extensions[id](r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	hashes := store.Hashes()
	if len(hashes) < 100 {
		t.Fatalf("store holds %d artifacts; the warm-up ran too little", len(hashes))
	}
	var samples int
	for _, h := range hashes {
		blob, ok := store.GetHash(h)
		if !ok {
			t.Fatalf("artifact %s unreadable", h)
		}
		want, key, ok := reflectDecodeSeries(blob)
		if !ok || checkpoint.KeyHash(key) != h {
			t.Fatalf("artifact %s: reflect decode ok=%v, key %q", h, ok, key)
		}
		got, ok := decodeSeries(key, blob)
		if !ok {
			t.Fatalf("artifact %s: decodeSeries rejected it", h)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("artifact %s (%s/%s): decodeSeries differs from the reflect decode", h, want.Workload, want.Policy)
		}
		sum, sumKey, ok := SummarizeSeriesBlob(blob)
		if !ok || sumKey != key || sum != summarize(want) {
			t.Fatalf("artifact %s: SummarizeSeriesBlob = %+v, %q, %v; want %+v, %q", h, sum, sumKey, ok, summarize(want), key)
		}
		for _, m := range got.Trials {
			samples += m.ReadLat.Count() + m.WriteLat.Count() + m.FaultLat.Count()
		}
	}
	if samples == 0 {
		t.Fatal("no artifact holds a latency sample; the comparison covers nothing")
	}
	t.Logf("%d artifacts, %d latency samples", len(hashes), samples)
}

// TestDecodeSeriesRejectsMalformedSamples: a sample that is not a plain
// JSON integer fitting in int64, or a truncated sample array, makes the
// artifact unreadable to both decodeSeries and SummarizeSeriesBlob, so
// the cell re-executes instead of rendering a wrong latency.
func TestDecodeSeriesRejectsMalformedSamples(t *testing.T) {
	s := &Series{
		Workload: "ycsb-a",
		Policy:   PolMGLRU,
		System:   SystemAt(0.5, core.SwapZRAM),
		Trials: []core.Metrics{{
			Runtime:  1,
			ReadLat:  stats.NewLatencyRecorderFrom([]int64{10, 20}),
			WriteLat: stats.NewLatencyRecorderFrom([]int64{30}),
			FaultLat: stats.NewLatencyRecorderFrom(nil),
		}},
	}
	blob, err := encodeSeries("k", s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeSeries("k", blob); !ok {
		t.Fatal("decode rejected a freshly encoded envelope")
	}
	good := []byte(`"ReadLat":[10,20]`)
	at := bytes.Index(blob, good)
	if at < 0 {
		t.Fatalf("encoded envelope has no %s: %s", good, blob)
	}
	bad := map[string][]byte{
		"truncated": blob[:at+len(`"ReadLat":[10,2`)],
	}
	for _, v := range []string{`1.5`, `1e3`, `"7"`, `9223372036854775808`, `-9223372036854775809`} {
		bad[v] = bytes.Replace(blob, good, []byte(`"ReadLat":[10,`+v+`]`), 1)
	}
	for name, b := range bad {
		if _, ok := decodeSeries("k", b); ok {
			t.Errorf("%s: decodeSeries accepted %s", name, b)
		}
		if _, _, ok := SummarizeSeriesBlob(b); ok {
			t.Errorf("%s: SummarizeSeriesBlob accepted %s", name, b)
		}
	}
}
