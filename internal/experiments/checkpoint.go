package experiments

import (
	"bytes"
	"encoding/json"
	"errors"

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
	ReadLat        latencySamples
	WriteLat       latencySamples
	FaultLat       latencySamples
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

// latencySamples is one recorder's raw samples in a checkpoint envelope.
// It encodes as the plain []int64 it is. It decodes through its own
// UnmarshalJSON, because the sample arrays are most of an artifact and
// encoding/json decodes a []int64 one element at a time through
// reflection.
type latencySamples []int64

var errLatencySamples = errors.New("checkpoint: latency samples are not a JSON array of int64 integers")

// UnmarshalJSON parses a JSON array of integers in one pass, into a slice
// sized once from the array's comma count. null decodes to nil. Anything
// else is an error: a fraction, an exponent, a string, a null element, a
// value outside int64, or a malformed or truncated array. The error makes
// the whole artifact unreadable, so its cell re-executes.
func (s *latencySamples) UnmarshalJSON(data []byte) error {
	i := skipJSONSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) && skipJSONSpace(data, i+4) == len(data) {
		*s = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return errLatencySamples
	}
	out := make([]int64, 0, bytes.Count(data, []byte{','})+1)
	for i = skipJSONSpace(data, i+1); i < len(data) && data[i] != ']'; i = skipJSONSpace(data, i) {
		if len(out) > 0 {
			if data[i] != ',' {
				return errLatencySamples
			}
			i = skipJSONSpace(data, i+1)
		}
		v, next, ok := parseJSONInt64(data, i)
		if !ok {
			return errLatencySamples
		}
		out = append(out, v)
		i = next
	}
	if i == len(data) || skipJSONSpace(data, i+1) != len(data) {
		return errLatencySamples
	}
	*s = out
	return nil
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
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
	var env seriesEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Version != checkpointVersion {
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
	var env seriesEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	if env.Version != checkpointVersion || env.Key != key {
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
