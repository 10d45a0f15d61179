package experiments

import (
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

func recorderOf(samples []int64) *stats.LatencyRecorder {
	l := stats.NewLatencyRecorder(len(samples))
	for _, s := range samples {
		l.Record(s)
	}
	return l
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
// the flattened latency samples back into recorders.
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
			ReadLat:        recorderOf(t.ReadLat),
			WriteLat:       recorderOf(t.WriteLat),
			FaultLat:       recorderOf(t.FaultLat),
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
