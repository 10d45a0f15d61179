package experiments

import (
	"bytes"
	"encoding/json"

	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/swap"
	"mglrusim/internal/vmm"
)

// checkpointVersion guards the on-disk series format: a stored envelope
// from a different version is treated as absent and re-executed.
const checkpointVersion = 1

// seriesEnvelope is the persisted form of one completed Series. The full
// cache key is embedded so a hash-named file is self-verifying, and
// latency recorders are flattened to their raw samples — exact integer
// nanoseconds, so a resumed series reproduces every percentile (and with
// it every figure byte) identically. All numeric fields are integers or
// Go-JSON float64s, both of which round-trip exactly.
type seriesEnvelope struct {
	Version  int
	Key      string
	Workload string
	Policy   string
	System   core.SystemConfig
	Trials   []trialMetrics
}

// trialMetrics mirrors core.Metrics with recorders flattened.
type trialMetrics struct {
	Runtime        sim.Time
	AppCPU         sim.Duration
	Counters       vmm.Counters
	Policy         policy.Stats
	Device         swap.Stats
	ReadLat        []int64
	WriteLat       []int64
	FaultLat       []int64
	FootprintPages int
	CapacityPages  int
	SegmentFaults  map[string]uint64 `json:",omitempty"`
	Injected       fault.Stats
	FileInjected   fault.Stats
	FileCache      pagecache.Stats
	FileDevice     swap.Stats
}

func samplesOf(l *stats.LatencyRecorder) []int64 {
	if l == nil {
		return nil
	}
	return l.Samples()
}

// decodeEnvelope parses a stored series envelope in one pass over its
// bytes. It walks the top-level object and each Trials object by hand
// and accepts only the members json.Marshal writes, in the order it
// writes them, with unescaped keys; an unknown, duplicate, missing,
// reordered, escaped or case-variant key, malformed structure or
// trailing bytes make ok false. Each sample array is parsed where it
// lies by parseSamples; every other member value is handed, alone, to
// json.Unmarshal into its field. Whatever it accepts decodes as
// json.Unmarshal decodes the whole blob into a seriesEnvelope.
//
// The version is checked as soon as it is read, and so is the key
// unless key is nil, so a stale or foreign entry parses no samples.
func decodeEnvelope(data []byte, key *string) (*seriesEnvelope, bool) {
	env := new(seriesEnvelope)
	p := envParser{data: data}
	ok := p.open() &&
		p.field("Version", &env.Version) && env.Version == checkpointVersion &&
		p.field("Key", &env.Key) && (key == nil || env.Key == *key) &&
		p.field("Workload", &env.Workload) &&
		p.field("Policy", &env.Policy) &&
		p.field("System", &env.System) &&
		p.key("Trials") && p.trials(&env.Trials) &&
		p.consume('}') && skipJSONSpace(data, p.i) == len(data)
	return env, ok
}

// envParser is decodeEnvelope's cursor: data[i:] is still unread, and
// first is set until the current object's first member is read.
type envParser struct {
	data  []byte
	i     int
	first bool
}

// consume skips whitespace and then the byte c, reporting whether c
// was there.
func (p *envParser) consume(c byte) bool {
	p.i = skipJSONSpace(p.data, p.i)
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// open reads the '{' that begins an object.
func (p *envParser) open() bool {
	p.first = true
	return p.consume('{')
}

// key reads the next member's key, which must be name exactly, and the
// colon after it, along with the comma before it unless it is the
// object's first member.
func (p *envParser) key(name string) bool {
	if !p.first && !p.consume(',') {
		return false
	}
	p.first = false
	p.i = skipJSONSpace(p.data, p.i)
	rest := p.data[p.i:]
	if len(rest) < len(name)+2 || rest[0] != '"' || string(rest[1:1+len(name)]) != name || rest[1+len(name)] != '"' {
		return false
	}
	p.i += len(name) + 2
	return p.consume(':')
}

// field reads member name and decodes its value into v.
func (p *envParser) field(name string, v any) bool {
	return p.key(name) && p.value(v)
}

// optional is field for an omitempty member: when the next member is
// not name, it reads nothing and leaves v as it is.
func (p *envParser) optional(name string, v any) bool {
	i, first := p.i, p.first
	if !p.key(name) {
		p.i, p.first = i, first
		return true
	}
	return p.value(v)
}

// value decodes the next value into v with json.Unmarshal.
func (p *envParser) value(v any) bool {
	start := skipJSONSpace(p.data, p.i)
	end, ok := skipJSONValue(p.data, start)
	if !ok || json.Unmarshal(p.data[start:end], v) != nil {
		return false
	}
	p.i = end
	return true
}

// samples reads member name, a latency sample array, into s.
func (p *envParser) samples(name string, s *[]int64) bool {
	if !p.key(name) {
		return false
	}
	vals, end, ok := parseSamples(p.data, p.i)
	*s, p.i = vals, end
	return ok
}

// trials reads the Trials array: null, or an array of trial objects.
// Like encoding/json, it decodes [] to an empty, non-nil slice.
func (p *envParser) trials(ts *[]trialMetrics) bool {
	p.i = skipJSONSpace(p.data, p.i)
	if bytes.HasPrefix(p.data[p.i:], []byte("null")) {
		p.i += len("null")
		return true
	}
	if !p.consume('[') {
		return false
	}
	out := []trialMetrics{}
	for !p.consume(']') {
		if len(out) > 0 && !p.consume(',') {
			return false
		}
		out = append(out, trialMetrics{})
		if !p.trial(&out[len(out)-1]) {
			return false
		}
	}
	*ts = out
	return true
}

// trial reads one Trials object into t.
func (p *envParser) trial(t *trialMetrics) bool {
	return p.open() &&
		p.field("Runtime", &t.Runtime) &&
		p.field("AppCPU", &t.AppCPU) &&
		p.field("Counters", &t.Counters) &&
		p.field("Policy", &t.Policy) &&
		p.field("Device", &t.Device) &&
		p.samples("ReadLat", &t.ReadLat) &&
		p.samples("WriteLat", &t.WriteLat) &&
		p.samples("FaultLat", &t.FaultLat) &&
		p.field("FootprintPages", &t.FootprintPages) &&
		p.field("CapacityPages", &t.CapacityPages) &&
		p.optional("SegmentFaults", &t.SegmentFaults) &&
		p.field("Injected", &t.Injected) &&
		p.field("FileInjected", &t.FileInjected) &&
		p.field("FileCache", &t.FileCache) &&
		p.field("FileDevice", &t.FileDevice) &&
		p.consume('}')
}

// skipJSONValue returns the index just past the JSON value that starts
// at data[i]. It follows only strings, with their escapes, and bracket
// nesting; a scalar ends at the first delimiter or whitespace. It
// validates nothing else: the caller hands data[i:end] to
// json.Unmarshal, which rejects anything that is not exactly one valid
// value. ok is false when a string or bracket is left open.
func skipJSONValue(data []byte, i int) (end int, ok bool) {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return 0, false
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i, true // the object or array around a scalar closes
			}
			depth--
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, true
			}
		default:
			continue // a byte of a scalar
		}
		if depth == 0 {
			return i + 1, true // a string, object or array closes
		}
	}
	return i, depth == 0
}

// parseSamples parses the latency sample array that starts at data[i],
// after any whitespace: a JSON array of integers, or null, which decodes
// to nil. It returns the values, in a slice sized once from the commas
// before the array's ']', and the index just past the array. ok is false
// for anything else: a fraction, an exponent, a string, a null element,
// a value outside int64, or a malformed or truncated array. Whatever
// follows the array is the caller's to check.
func parseSamples(data []byte, i int) (vals []int64, end int, ok bool) {
	i = skipJSONSpace(data, i)
	if bytes.HasPrefix(data[i:], []byte("null")) {
		return nil, i + len("null"), true
	}
	if i == len(data) || data[i] != '[' {
		return nil, 0, false
	}
	n := bytes.IndexByte(data[i:], ']')
	if n < 0 {
		return nil, 0, false
	}
	out := make([]int64, 0, bytes.Count(data[i:i+n], []byte{','})+1)
	if i = skipJSONSpace(data, i+1); data[i] == ']' {
		return out, i + 1, true
	}
	for {
		v, next, ok := parseJSONInt64(data, i)
		if !ok {
			return nil, 0, false
		}
		out = append(out, v)
		switch i = skipJSONSpace(data, next); {
		case i == len(data):
			return nil, 0, false
		case data[i] == ']':
			return out, i + 1, true
		case data[i] != ',':
			return nil, 0, false
		}
		i = skipJSONSpace(data, i+1)
	}
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace. Every whitespace byte is at most ' ', so one
// comparison passes over any other byte.
func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// parseJSONInt64 parses the JSON integer starting at data[i]: an optional
// minus sign, then digits with no leading zero. It returns the value and
// the index just past the digits; ok is false when there is no such
// integer or it overflows int64. Whatever follows the digits is the
// caller's to check.
func parseJSONInt64(data []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	// Up to 19 digits cannot wrap a uint64; 20 or more without a leading
	// zero exceed int64 anyway.
	n := i - start
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if n == 0 || n > 19 || (n > 1 && data[start] == '0') || u > limit {
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// encodeSeries serializes s for the checkpoint store under key.
func encodeSeries(key string, s *Series) ([]byte, error) {
	env := seriesEnvelope{
		Version:  checkpointVersion,
		Key:      key,
		Workload: s.Workload,
		Policy:   s.Policy,
		System:   s.System,
		Trials:   make([]trialMetrics, len(s.Trials)),
	}
	for i, m := range s.Trials {
		env.Trials[i] = trialMetrics{
			Runtime:        m.Runtime,
			AppCPU:         m.AppCPU,
			Counters:       m.Counters,
			Policy:         m.Policy,
			Device:         m.Device,
			ReadLat:        samplesOf(m.ReadLat),
			WriteLat:       samplesOf(m.WriteLat),
			FaultLat:       samplesOf(m.FaultLat),
			FootprintPages: m.FootprintPages,
			CapacityPages:  m.CapacityPages,
			SegmentFaults:  m.SegmentFaults,
			Injected:       m.Injected,
			FileInjected:   m.FileInjected,
			FileCache:      m.FileCache,
			FileDevice:     m.FileDevice,
		}
	}
	return json.Marshal(env)
}

// SeriesSummary is the compact telemetry digest of one stored series —
// what the sweep server streams per completed cell without shipping the
// full artifact (raw latency samples dominate the blob).
type SeriesSummary struct {
	Workload       string  `json:"workload"`
	Policy         string  `json:"policy"`
	Trials         int     `json:"trials"`
	MeanRuntimeSec float64 `json:"meanRuntimeSec"`
	MeanFaults     float64 `json:"meanFaults"`
	// MeanRequestNS is the mean request latency across trials in
	// nanoseconds; zero for batch (runtime-metric) workloads.
	MeanRequestNS float64 `json:"meanRequestNS,omitempty"`
}

// SummarizeSeriesBlob digests a checkpoint-store blob into a
// SeriesSummary and reports the logical cache key embedded in the blob. ok
// is false when the blob is not a valid series envelope of the current
// format version. The blob is parsed once.
func SummarizeSeriesBlob(data []byte) (sum SeriesSummary, key string, ok bool) {
	env, ok := decodeEnvelope(data, nil)
	if !ok {
		return SeriesSummary{}, "", false
	}
	return summarize(env.series()), env.Key, true
}

// summarize digests a restored series.
func summarize(s *Series) SeriesSummary {
	sum := SeriesSummary{
		Workload: s.Workload,
		Policy:   s.Policy,
		Trials:   len(s.Trials),
	}
	if len(s.Trials) > 0 {
		sum.MeanRuntimeSec = stats.Mean(s.Runtimes())
		sum.MeanFaults = stats.Mean(s.Faults())
		if req := s.MeanRequestNS(); len(req) > 0 {
			sum.MeanRequestNS = stats.Mean(req)
		}
	}
	return sum
}

// decodeSeries restores a persisted series. ok is false when the blob is
// unparsable, from a different format version, or stored under a
// different logical key (hash collision or stale file) — all of which
// mean "re-execute".
func decodeSeries(key string, data []byte) (*Series, bool) {
	env, ok := decodeEnvelope(data, &key)
	if !ok {
		return nil, false
	}
	return env.series(), true
}

// series rebuilds the in-memory Series from a decoded envelope, turning
// the flattened latency samples back into recorders. The recorders take
// the decoded slices over, so env must not be used afterwards.
func (env *seriesEnvelope) series() *Series {
	s := &Series{
		Workload: env.Workload,
		Policy:   env.Policy,
		System:   env.System,
		Trials:   make([]core.Metrics, len(env.Trials)),
	}
	for i, t := range env.Trials {
		s.Trials[i] = core.Metrics{
			Runtime:        t.Runtime,
			AppCPU:         t.AppCPU,
			Counters:       t.Counters,
			Policy:         t.Policy,
			Device:         t.Device,
			ReadLat:        stats.NewLatencyRecorderFrom(t.ReadLat),
			WriteLat:       stats.NewLatencyRecorderFrom(t.WriteLat),
			FaultLat:       stats.NewLatencyRecorderFrom(t.FaultLat),
			FootprintPages: t.FootprintPages,
			CapacityPages:  t.CapacityPages,
			SegmentFaults:  t.SegmentFaults,
			Injected:       t.Injected,
			FileInjected:   t.FileInjected,
			FileCache:      t.FileCache,
			FileDevice:     t.FileDevice,
		}
	}
	return s
}
