package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog records spans at the benchmark's calls into each layer. Spans
// stay in memory and are written out once, when the run ends.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

type span struct {
	name   string
	req    string // request id: cell key hash (+ trial) or sweep iteration
	parent int    // handle of the parent span, 0 for a root
	tid    int    // client or worker slot
	start  time.Time
	end    time.Time
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its handle.
func (l *spanLog) begin(name, req string, parent, tid int) int {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, req: req, parent: parent, tid: tid, start: now})
	return len(l.spans)
}

// finish closes the span begin returned.
func (l *spanLog) finish(h int) {
	now := time.Now()
	l.mu.Lock()
	l.spans[h-1].end = now
	l.mu.Unlock()
}

// add records a span whose interval is already known.
func (l *spanLog) add(name, req string, parent, tid int, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, req: req, parent: parent, tid: tid, start: start, end: end})
	l.mu.Unlock()
}

// durations returns the lengths of every closed span with the given name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s.end.Sub(s.start))
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format (complete
// "X" events; ts and dur in microseconds with nanosecond fractions),
// loadable in Perfetto or chrome://tracing.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		if s.end.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i + 1, "parent": s.parent, "req": s.req},
		})
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
