// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine models a small multiprocessor: a fixed number of hardware CPU
// contexts shared by an arbitrary number of simulated tasks ("procs"). Time
// is virtual, measured in nanoseconds, and never coupled to the wall clock.
// Each proc is a coroutine (iter.Pull) that only Run resumes, one at a
// time: a parking proc runs the dispatch loop on its own stack, records
// the proc whose wakeup popped in Engine.next and yields, and Run resumes
// that proc. No scheduler goroutine or channel is involved, so execution
// order — and therefore every simulated timestamp — is fully determined
// by the event heap and the seeds supplied by the caller.
//
// CPU contention uses a fluid processor-sharing model: when R procs are
// runnable on C contexts, charged CPU work is dilated by max(1, R/C). Work
// is charged in bounded quanta so that dilation tracks changes in the
// runnable set (for example, a kernel scanning thread waking up mid-stage).
//
// Blocking operations (device I/O, condition waits, barriers) remove a proc
// from the runnable set and are woken by events or explicit signals.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Common durations, mirroring time package conventions but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// String renders a Time with adaptive units for logs and debugging.
func (t Time) String() string {
	switch {
	case t >= Time(Second):
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Time(Millisecond):
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Time(Microsecond):
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }
