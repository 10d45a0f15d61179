package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mglrusim/internal/checkpoint"
	"mglrusim/internal/core"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
)

// referenceDecodeEnvelope is the decode decodeEnvelope replaced:
// encoding/json over the whole blob. decodeEnvelope is held to it.
func referenceDecodeEnvelope(data []byte) (*seriesEnvelope, bool) {
	env := new(seriesEnvelope)
	return env, json.Unmarshal(data, env) == nil
}

// storedArtifact is the artifact one small real cell leaves in a fresh
// store: ycsb-a under clock at one trial and scale 0.02, about 30 KB,
// latency samples and all. It is built once per test binary.
var storedArtifact = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "stored-artifact")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	const scale = 0.02
	r := NewRunner(Options{Trials: 1, Scale: scale, Seed: 0x5EED, Checkpoint: store})
	if _, err := r.Run(WorkloadByName("ycsb-a", scale), PolicyByName(PolClock), SystemAt(0.5, core.SwapSSD)); err != nil {
		return nil, err
	}
	hashes := store.Hashes()
	if len(hashes) != 1 {
		return nil, fmt.Errorf("store holds %d artifacts, want 1", len(hashes))
	}
	blob, ok := store.GetHash(hashes[0])
	if !ok {
		return nil, fmt.Errorf("artifact %s unreadable", hashes[0])
	}
	return blob, nil
})

func realArtifact(tb testing.TB) []byte {
	tb.Helper()
	blob, err := storedArtifact()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// syntheticArtifact encodes a two-trial series whose optional and
// page-cache members are all present, under key.
func syntheticArtifact(tb testing.TB, key string) []byte {
	tb.Helper()
	m := core.Metrics{
		Runtime:        12345,
		AppCPU:         678,
		FootprintPages: 100,
		CapacityPages:  50,
		ReadLat:        stats.NewLatencyRecorderFrom([]int64{10, -20, 9223372036854775807}),
		WriteLat:       stats.NewLatencyRecorderFrom(nil),
		FaultLat:       stats.NewLatencyRecorderFrom([]int64{30}),
		SegmentFaults:  map[string]uint64{"lineitem": 7, `q"\]}`: 1},
		FileCache:      pagecache.Stats{Reads: 7, Refaults: 8, ThrottleStallTime: 777},
		FileDevice:     swap.Stats{Reads: 11, Writes: 13},
	}
	s := &Series{Workload: "serve", Policy: PolMGLRU, System: SystemAt(0.5, core.SwapZRAM), Trials: []core.Metrics{m, m}}
	blob, err := encodeSeries(key, s)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// checkAgainstReference fails t unless decodeEnvelope either rejects
// data or decodes it exactly as the reference does. It reports whether
// decodeEnvelope accepted.
func checkAgainstReference(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := decodeEnvelope(data, nil)
	if !ok {
		return false
	}
	want, wantOK := referenceDecodeEnvelope(data)
	if !wantOK {
		t.Fatalf("decodeEnvelope accepted %.200q, which encoding/json rejects", data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeEnvelope decodes %.200q differently from encoding/json", data)
	}
	if _, ok := decodeEnvelope(data, &got.Key); !ok {
		t.Fatalf("decodeEnvelope rejected %.200q under its own key %q", data, got.Key)
	}
	other := got.Key + "x"
	if _, ok := decodeEnvelope(data, &other); ok {
		t.Fatalf("decodeEnvelope accepted %.200q under a foreign key", data)
	}
	return true
}

// checkMarshaled fails t unless decodeEnvelope accepts the json.Marshal
// encoding of env and decodes it exactly as encoding/json does.
func checkMarshaled(t *testing.T, env *seriesEnvelope) {
	t.Helper()
	blob, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !checkAgainstReference(t, blob) {
		t.Fatalf("decodeEnvelope rejected the marshaled envelope %.200q", blob)
	}
}

// FuzzDecodeEnvelope: decodeEnvelope, the one-pass walker behind
// decodeSeries and SummarizeSeriesBlob, against a whole-blob
// json.Unmarshal. Whatever the walker accepts, the reference accepts,
// with a deeply equal envelope, and the walker then also accepts it
// under its own key and rejects it under another. Every json.Marshal'ed
// envelope of the current version is accepted: the re-encoding of
// whatever the reference decodes, and an envelope built from the fuzz
// bytes (its key their string, its samples their little-endian words).
func FuzzDecodeEnvelope(f *testing.F) {
	stored := realArtifact(f)
	synth := syntheticArtifact(f, `k]}"\`)
	f.Add(stored)
	f.Add(synth)
	for _, c := range adversarialEnvelopes(f, synth) {
		f.Add(c.data)
	}
	for _, s := range []string{``, `null`, `{}`, `[]`, `{"Version":1}`, `{"Version":1,"Key":"k"}`, `{"Version":1,"Key":"k","Workload":"w","Policy":"p","System":{},"Trials":null}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
		if ref, ok := referenceDecodeEnvelope(data); ok {
			ref.Version = checkpointVersion
			checkMarshaled(t, ref)
		}
		words := make([]int64, len(data)/8)
		for i := range words {
			words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		env := &seriesEnvelope{Version: checkpointVersion, Key: string(data), Workload: "w", Policy: "p", Trials: []trialMetrics{
			{ReadLat: words, FaultLat: words[:len(words)/2], SegmentFaults: map[string]uint64{string(data): uint64(len(data))}},
			{WriteLat: []int64{}},
		}}
		checkMarshaled(t, env)
	})
}

type adversarialCase struct {
	name   string
	data   []byte
	accept bool // decodeEnvelope accepts it, as encoding/json decodes it
}

// adversarialEnvelopes derives hostile variants of artifact, which must
// be an encodeSeries output with a non-empty ReadLat in its first trial.
func adversarialEnvelopes(tb testing.TB, artifact []byte) []adversarialCase {
	tb.Helper()
	// member returns the bounds of the first member named key: the
	// index of its key and the index just past its value.
	member := func(key string) (start, end int) {
		start = mustIndex(tb, artifact, `"`+key+`":`)
		end, ok := skipJSONValue(artifact, start+len(key)+3)
		if !ok {
			tb.Fatalf("artifact member %s has no value end", key)
		}
		return start, end
	}
	with := func(key, v string) []byte {
		start, end := member(key)
		return concat(artifact[:start], []byte(`"`+key+`":`+v), artifact[end:])
	}
	replace := func(old, new string) []byte {
		mustIndex(tb, artifact, old)
		return bytes.Replace(artifact, []byte(old), []byte(new), 1)
	}
	_, readLatEnd := member("ReadLat")
	appCPU, appCPUEnd := member("AppCPU")
	trials, _ := member("Trials")
	return []adversarialCase{
		{"as written", artifact, true},
		{"duplicate ReadLat", concat(artifact[:readLatEnd], []byte(`,"ReadLat":[1]`), artifact[readLatEnd:]), false},
		{"duplicate Key", replace(`"Key":`, `"Key":"a","Key":`), false},
		{"case-variant key", replace(`"ReadLat":`, `"readlat":`), false},
		{"case-variant envelope key", replace(`"Workload":`, `"workload":`), false},
		{"escaped key", replace(`"ReadLat":`, `"Read\u004cat":`), false},
		{"unknown envelope key", replace(`"Workload":`, `"Bogus":1,"Workload":`), false},
		{"unknown trial key", replace(`"ReadLat":`, `"Bogus":[1],"ReadLat":`), false},
		{"unknown nested key", replace(`"System":{`, `"System":{"Bogus":1,`), true},
		{"reordered keys", replace(`"Workload":`, `"Policy":"x","Workload":`), false},
		{"missing trial key", concat(artifact[:appCPU], artifact[appCPUEnd+1:]), false},
		{"whitespace between every token", spaceTokens(artifact), true},
		{"trailing garbage", concat(artifact, []byte(`x`)), false},
		{"trailing object", concat(artifact, []byte(` {}`)), false},
		{"trailing whitespace", concat(artifact, []byte(" \n\t\r")), true},
		{"null ReadLat", with("ReadLat", `null`), true},
		{"empty ReadLat", with("ReadLat", `[]`), true},
		{"spaced empty ReadLat", with("ReadLat", " [ \n ] "), true},
		{"ReadLat of null", with("ReadLat", `[null]`), false},
		{"ReadLat of strings", with("ReadLat", `["1"]`), false},
		{"ReadLat object", with("ReadLat", `{}`), false},
		{"ReadLat nullx", with("ReadLat", `nullx`), false},
		{"null Trials", concat(artifact[:trials], []byte(`"Trials":null}`)), true},
		{"empty Trials", concat(artifact[:trials], []byte(`"Trials":[]}`)), true},
		{"trailing comma in Trials", concat(artifact[:len(artifact)-2], []byte(`,]}`)), false},
		{"fraction as Version", with("Version", `1.0`), false},
		{"number as Workload", with("Workload", `7`), false},
		{"null Workload", with("Workload", `null`), true},
		{"stale version", with("Version", `2`), false},
		{"top-level array", concat([]byte(`[`), artifact, []byte(`]`)), false},
	}
}

// mustIndex returns the index of the first s in data, failing tb when
// there is none.
func mustIndex(tb testing.TB, data []byte, s string) int {
	tb.Helper()
	i := bytes.Index(data, []byte(s))
	if i < 0 {
		tb.Fatalf("artifact has no %s", s)
	}
	return i
}

func concat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

// spaceTokens puts whitespace between every two JSON tokens of data.
func spaceTokens(data []byte) []byte {
	var out []byte
	inString := false
	for i := 0; i < len(data); i++ {
		c := data[i]
		switch {
		case inString && c == '\\':
			out = append(out, c, data[i+1])
			i++
			continue
		case c == '"':
			if !inString {
				out = append(out, " \n"...)
			}
			inString = !inString
		case !inString && strings.IndexByte("{}[]:,", c) >= 0:
			out = append(out, '\t', c, '\r', ' ')
			continue
		}
		out = append(out, c)
	}
	return out
}

// TestDecodeEnvelopeAdversarial: each hostile variant of a real and of a
// synthetic artifact is rejected, or decoded exactly as encoding/json
// decodes it, as its case says; none panics, and decodeSeries and
// SummarizeSeriesBlob agree with decodeEnvelope. Every proper prefix of
// both artifacts is rejected.
func TestDecodeEnvelopeAdversarial(t *testing.T) {
	for name, artifact := range map[string][]byte{
		"real":      realArtifact(t),
		"synthetic": syntheticArtifact(t, `k]}"\`),
	} {
		t.Run(name, func(t *testing.T) {
			for _, c := range adversarialEnvelopes(t, artifact) {
				if got := checkAgainstReference(t, c.data); got != c.accept {
					t.Errorf("%s: accepted=%v, want %v", c.name, got, c.accept)
				}
				env, _ := referenceDecodeEnvelope(c.data)
				_, _, sumOK := SummarizeSeriesBlob(c.data)
				_, decOK := decodeSeries(env.Key, c.data)
				if sumOK != c.accept || decOK != c.accept {
					t.Errorf("%s: SummarizeSeriesBlob ok=%v, decodeSeries ok=%v, want %v", c.name, sumOK, decOK, c.accept)
				}
			}
			for n := range artifact {
				if _, ok := decodeEnvelope(artifact[:n], nil); ok {
					t.Fatalf("accepted the %d-byte prefix of a %d-byte artifact", n, len(artifact))
				}
			}
		})
	}
}

// TestDecodeEnvelopeFieldCoverage: an envelope with every exported field
// of seriesEnvelope and trialMetrics, nested ones included, set to a
// non-zero value round-trips through json.Marshal and decodeEnvelope. A
// field added to either struct without a member in decodeEnvelope's walk
// fails here, instead of making every stored artifact read as absent and
// every cached cell re-execute.
func TestDecodeEnvelopeFieldCoverage(t *testing.T) {
	env := new(seriesEnvelope)
	n := 0
	fillNonZero(t, reflect.ValueOf(env).Elem(), &n)
	env.Version = checkpointVersion
	for _, v := range []reflect.Value{reflect.ValueOf(*env), reflect.ValueOf(env.Trials[0])} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s left zero", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	blob, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeEnvelope(blob, &env.Key)
	if !ok {
		t.Fatalf("decodeEnvelope rejected a fully populated envelope: %s", blob)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("fully populated envelope does not round-trip:\ngot  %+v\nwant %+v", got, env)
	}
}

// fillNonZero sets every exported, JSON-visible value reachable from v
// to a distinct non-zero value, counting with *n.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(*n%100 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n%100) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, k, n)
		fillNonZero(t, e, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	default:
		t.Fatalf("fillNonZero: cannot fill a %v", v.Type())
	}
}
