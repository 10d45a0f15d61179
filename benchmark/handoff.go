package main

import "time"

// The host's CPUs are shared, and how long it takes to wake one goroutine
// from another drifts by tens of percent over seconds to minutes. The
// simulator's engine hands a baton between goroutines at every simulated
// event, so its host time drifts with it. A reference handoff, timed
// right after each part of a pass or request, measures that drift, and
// the end-to-end times are scaled to a host on which the reference takes
// refNominal.
const (
	refRoundTrips = 2000
	refBursts     = 5
	refNominal    = time.Millisecond
)

// refHandoff times refRoundTrips round trips between two goroutines over
// unbuffered channels. They run in refBursts bursts, and the fastest
// burst stands for all of them, so a collection cycle or an interrupt
// that lands in one burst is left out while a slow spell of the host,
// which covers every burst, is kept. It is the benchmark's own code and
// never changes with the simulator, so scaling by it leaves every change
// to the simulator's speed in place.
func refHandoff() time.Duration {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	var best time.Duration
	for b := 0; b < refBursts; b++ {
		start := time.Now()
		for i := 0; i < refRoundTrips/refBursts; i++ {
			ping <- struct{}{}
			<-pong
		}
		if d := time.Since(start); b == 0 || d < best {
			best = d
		}
	}
	close(ping)
	<-pong
	return best * refBursts
}

// part is one timed part of a pass or request: its host time, and the
// reference handoff's time measured right after it.
type part struct{ wall, ref time.Duration }

// endPart closes the part that began at start.
func endPart(start time.Time) part {
	wall := time.Since(start)
	return part{wall: wall, ref: refHandoff()}
}

// scaled is the part's host time on a host whose reference handoff takes
// refNominal.
func (p part) scaled() time.Duration {
	return time.Duration(float64(p.wall) * float64(refNominal) / float64(p.ref))
}

func (p part) raw() time.Duration { return p.wall }

// medianRef is the median reference handoff over every part of samples.
func medianRef(samples [][]part) time.Duration {
	var refs []time.Duration
	for _, ps := range samples {
		for _, p := range ps {
			refs = append(refs, p.ref)
		}
	}
	return quantile(refs, 0.5)
}
