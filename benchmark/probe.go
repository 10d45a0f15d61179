package main

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mglrusim/internal/experiments"
	"mglrusim/internal/mem"
	"mglrusim/internal/policy"
	"mglrusim/internal/sim"
)

// Goroutine labels the probe sets around policy calls. A CPU profile
// sample carries the labels of the goroutine it interrupted, so CPU spent
// inside a policy call (labelPolicy) and inside the EvictPage it makes
// (labelEvict) can be told apart even though the engine parks a proc
// mid-call and runs others: each proc is its own goroutine with its own
// labels.
var (
	labelPolicy = pprof.WithLabels(context.Background(), pprof.Labels("span", "policy"))
	labelEvict  = pprof.WithLabels(context.Background(), pprof.Labels("span", "evict"))
	labelNone   = context.Background()
)

// probe is the traced pass's policy.Policy decorator, installed through
// PolicySpec.Make. It keeps the policy's Name, so cache keys are the
// bare policy's, and it changes nothing the simulation can observe: it
// only counts calls, times them in host time and labels the goroutine.
// It does not forward optional interfaces (telemetry.Registrant, the
// auditor's hooks); the benchmark runs with neither.
type probe struct {
	pageins, reclaims, ages atomic.Uint64

	mu sync.Mutex
	// reclaimWall and ageWall hold the host time of every Reclaim and Age
	// call. It includes the time the calling proc sat parked while the
	// engine ran other procs, so it is the call's latency, not its CPU.
	reclaimWall, ageWall []time.Duration
}

// wrap decorates spec. onTrial, when set, receives each trial's host-time
// interval: a trial builds a fresh policy at its start and reads the
// policy's Stats once, at its end (telemetry gauges, which read them
// periodically, are off in the benchmark).
func (pb *probe) wrap(spec experiments.PolicySpec, onTrial func(start, end time.Time)) experiments.PolicySpec {
	mk := spec.Make
	return experiments.PolicySpec{Name: spec.Name, Make: func() policy.Policy {
		return &probedPolicy{Policy: mk(), pb: pb, made: time.Now(), onTrial: onTrial}
	}}
}

func (pb *probe) record(dst *[]time.Duration, d time.Duration) {
	pb.mu.Lock()
	*dst = append(*dst, d)
	pb.mu.Unlock()
}

type probedPolicy struct {
	policy.Policy
	pb      *probe
	made    time.Time
	onTrial func(start, end time.Time)
}

func (p *probedPolicy) Attach(k policy.Kernel) { p.Policy.Attach(probedKernel{k}) }

func (p *probedPolicy) Stats() policy.Stats {
	if p.onTrial != nil {
		p.onTrial(p.made, time.Now())
	}
	return p.Policy.Stats()
}

func (p *probedPolicy) PageIn(v *sim.Env, f mem.FrameID, sh *policy.Shadow) {
	pprof.SetGoroutineLabels(labelPolicy)
	p.Policy.PageIn(v, f, sh)
	pprof.SetGoroutineLabels(labelNone)
	p.pb.pageins.Add(1)
}

func (p *probedPolicy) Reclaim(v *sim.Env, target int) int {
	pprof.SetGoroutineLabels(labelPolicy)
	start := time.Now()
	n := p.Policy.Reclaim(v, target)
	d := time.Since(start)
	pprof.SetGoroutineLabels(labelNone)
	p.pb.reclaims.Add(1)
	p.pb.record(&p.pb.reclaimWall, d)
	return n
}

func (p *probedPolicy) Age(v *sim.Env) bool {
	pprof.SetGoroutineLabels(labelPolicy)
	start := time.Now()
	worked := p.Policy.Age(v)
	d := time.Since(start)
	pprof.SetGoroutineLabels(labelNone)
	p.pb.ages.Add(1)
	p.pb.record(&p.pb.ageWall, d)
	return worked
}

// probedKernel marks EvictPage as the policy span's child, so the
// policy's self time excludes the eviction work it asks the kernel for.
type probedKernel struct{ policy.Kernel }

func (k probedKernel) EvictPage(v *sim.Env, f mem.FrameID, sh policy.Shadow) {
	pprof.SetGoroutineLabels(labelEvict)
	k.Kernel.EvictPage(v, f, sh)
	pprof.SetGoroutineLabels(labelPolicy)
}
