// Package server is the simulation-as-a-service layer: a long-running
// HTTP daemon that accepts scenario sweeps (workloads × policies ×
// system axes), answers them mostly from the content-addressed
// checkpoint cache, and schedules cold cells onto the crash-tolerant
// shard executor. Jobs are first-class resources with per-cell state,
// an SSE progress stream, and content-addressed result artifacts.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/workload"
)

// SweepRequest is the wire form of one scenario submission: the axes of
// the sweep in registry vocabulary, plus optional methodology overrides.
// Unknown fields are rejected.
type SweepRequest struct {
	// Workloads and Policies are registry names (required, non-empty).
	Workloads []string `json:"workloads"`
	Policies  []string `json:"policies"`
	// Ratios is the capacity-ratio ladder. Empty means the default system
	// ratio (0.5).
	Ratios []float64 `json:"ratios,omitempty"`
	// Swaps is the swap-medium axis: "ssd" and/or "zram". Empty means ssd.
	Swaps []string `json:"swaps,omitempty"`
	// Trials per cell. 0 means the server default.
	Trials int `json:"trials,omitempty"`
	// Scale multiplies workload footprints. 0 means the server default.
	Scale float64 `json:"scale,omitempty"`
	// System optionally overrides system-config knobs for every cell.
	System *SystemOverride `json:"system,omitempty"`
}

// SystemOverride is the subset of core.SystemConfig a client may set.
type SystemOverride struct {
	// CPUs overrides the hardware-context count (default 12).
	CPUs int `json:"cpus,omitempty"`
	// RegionPTEs requests a page-table region fanout. It must match the
	// fanout the server lays workloads out with; a differing value is the
	// classic region-fanout mismatch and is rejected at validation time
	// (core.FanoutMismatchError) instead of failing every cell at
	// execution time.
	RegionPTEs int `json:"regionPTEs,omitempty"`
	// PageCache enables the file-backed page cache (default profile) for
	// every cell. Workloads that map no file segment run unchanged, so
	// mixing serve with anon-only workloads in one sweep is safe.
	PageCache bool `json:"pagecache,omitempty"`
	// Fault applies a named fault-injection preset to every cell ("mild",
	// "severe", "file-mild", "file-severe"; "", "off", and "none" inject
	// nothing). A file-targeted preset combined with PageCache switches
	// the cache to its degraded profile (hard dirty throttle armed) so
	// server cells share cache keys with the batch ext3 figure.
	Fault string `json:"fault,omitempty"`
}

// apiError is a structured 4xx/5xx response body.
type apiError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: 400, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Per-request bounds and defaults every server applies.
const (
	// maxTrials caps per-cell trials.
	maxTrials = 25
	// maxScale caps the workload scale factor.
	maxScale = 2.0
	// defaultTrials and defaultScale fill zero request fields.
	defaultTrials = 3
	defaultScale  = 0.2
)

// Limits bound what one submission may ask for.
type Limits struct {
	// MaxCells caps the sweep size (axis product after dedup; <=0: 64).
	MaxCells int
}

func (l Limits) withDefaults() Limits {
	if l.MaxCells <= 0 {
		l.MaxCells = 64
	}
	return l
}

// Canonical is a validated, canonicalized sweep: axes sorted and
// deduplicated, defaults applied, every name verified against the
// registry. Two submissions meaning the same sweep canonicalize to equal
// values — and therefore to the same JobKey — regardless of axis order,
// duplicates, or explicit-vs-defaulted fields.
type Canonical struct {
	Workloads  []string  `json:"workloads"`
	Policies   []string  `json:"policies"`
	Ratios     []float64 `json:"ratios"`
	Swaps      []string  `json:"swaps"`
	Trials     int       `json:"trials"`
	Scale      float64   `json:"scale"`
	CPUs       int       `json:"cpus"`
	RegionPTEs int       `json:"regionPTEs"`
	PageCache  bool      `json:"pagecache"`
	Fault      string    `json:"fault"`
}

// ParseSweepRequest decodes and validates one submission body against
// the limits, returning its canonical form. Every rejection is a typed
// *apiError; nothing is ever enqueued for an invalid request.
func ParseSweepRequest(r io.Reader, lim Limits) (Canonical, *apiError) {
	lim = lim.withDefaults()
	var c Canonical
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return c, badRequest("bad-json", "malformed sweep request: %v", err)
	}
	if dec.More() {
		return c, badRequest("bad-json", "trailing data after sweep request")
	}
	return canonicalize(req, lim)
}

func canonicalize(req SweepRequest, lim Limits) (Canonical, *apiError) {
	var c Canonical

	var aerr *apiError
	c.Workloads, aerr = canonNames(req.Workloads, experiments.WorkloadNames(), "workload")
	if aerr != nil {
		return c, aerr
	}
	c.Policies, aerr = canonNames(req.Policies, experiments.PolicyNames(), "policy")
	if aerr != nil {
		return c, aerr
	}

	base := core.DefaultSystemConfig()
	c.Ratios = append([]float64(nil), req.Ratios...)
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{base.Ratio}
	}
	sort.Float64s(c.Ratios)
	c.Ratios = dedupFloats(c.Ratios)
	for _, ratio := range c.Ratios {
		// The same plausibility band core.RunTrialOpts enforces, applied
		// before anything is enqueued.
		if ratio <= 0 || ratio > 1.5 {
			return c, badRequest("bad-ratio", "implausible capacity ratio %v (want 0 < ratio <= 1.5)", ratio)
		}
	}

	swaps := req.Swaps
	if len(swaps) == 0 {
		swaps = []string{core.SwapSSD.String()}
	}
	for _, sw := range swaps {
		if _, ok := swapByName(sw); !ok {
			return c, badRequest("bad-swap", "unknown swap medium %q (want ssd or zram)", sw)
		}
	}
	c.Swaps = dedupStrings(sortedCopy(swaps))

	c.Trials = req.Trials
	if c.Trials == 0 {
		c.Trials = defaultTrials
	}
	if c.Trials < 1 || c.Trials > maxTrials {
		return c, badRequest("bad-trials", "trials %d out of range [1, %d]", c.Trials, maxTrials)
	}

	c.Scale = req.Scale
	if c.Scale == 0 {
		c.Scale = defaultScale
	}
	if c.Scale < 0 || c.Scale > maxScale {
		return c, badRequest("bad-scale", "scale %g out of range (0, %g]", c.Scale, maxScale)
	}

	c.CPUs = base.CPUs
	c.RegionPTEs = workload.DefaultRegionPTEs
	if req.System != nil {
		if req.System.CPUs != 0 {
			if req.System.CPUs < 1 || req.System.CPUs > 256 {
				return c, badRequest("bad-cpus", "cpus %d out of range [1, 256]", req.System.CPUs)
			}
			c.CPUs = req.System.CPUs
		}
		c.PageCache = req.System.PageCache
		if req.System.Fault != "" {
			plan, ok := fault.Preset(req.System.Fault)
			if !ok {
				return c, badRequest("bad-fault", "unknown fault preset %q (known: off, mild, severe, file-mild, file-severe)", req.System.Fault)
			}
			// Inert spellings ("off", "none") canonicalize to the empty
			// string so they share a JobKey with requests that omit the
			// field entirely.
			if plan.Enabled() {
				c.Fault = req.System.Fault
			}
		}
		if want := req.System.RegionPTEs; want != 0 && want != c.RegionPTEs {
			// The PR 6 typed mismatch, surfaced at validation time: the
			// system the client asks for could never run against the fanout
			// this server lays workloads out with.
			ferr := &core.FanoutMismatchError{Want: want, Have: c.RegionPTEs, Workload: "*"}
			return c, badRequest("fanout-mismatch", "%v", ferr)
		}
	}

	if n := len(c.Workloads) * len(c.Policies) * len(c.Ratios) * len(c.Swaps); n > lim.MaxCells {
		return c, badRequest("sweep-too-large", "sweep expands to %d cells, cap is %d", n, lim.MaxCells)
	}
	return c, nil
}

func canonNames(names, vocab []string, kind string) ([]string, *apiError) {
	if len(names) == 0 {
		return nil, badRequest("empty-axis", "at least one %s is required", kind)
	}
	known := map[string]bool{}
	for _, n := range vocab {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			return nil, badRequest("unknown-"+kind, "unknown %s %q (known: %v)", kind, n, vocab)
		}
	}
	return dedupStrings(sortedCopy(names)), nil
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func dedupStrings(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func dedupFloats(sorted []float64) []float64 {
	out := sorted[:0]
	for i, f := range sorted {
		if i == 0 || f != sorted[i-1] {
			out = append(out, f)
		}
	}
	return out
}

func swapByName(name string) (core.SwapKind, bool) {
	switch name {
	case "ssd":
		return core.SwapSSD, true
	case "zram":
		return core.SwapZRAM, true
	}
	return 0, false
}

// JobKey derives the sweep's content-addressed job identity from its
// canonical form plus the server's methodology seed: same sweep, same
// job, across clients and submissions. The canonical JSON encoding is
// deterministic (fixed field order, sorted axes).
func (c Canonical) JobKey(seed uint64) string {
	data, err := json.Marshal(c)
	if err != nil {
		// Canonical contains only plain values; Marshal cannot fail.
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "sweep-v1|seed=%d|", seed)
	h.Write(data)
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Encode renders the canonical form as its deterministic JSON.
func (c Canonical) Encode() []byte {
	data, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return data
}

// Reparse runs the canonical form back through validation — the
// idempotence check the fuzz target leans on: canonicalize(encode(c))
// must reproduce c exactly.
func (c Canonical) Reparse(lim Limits) (Canonical, *apiError) {
	return ParseSweepRequest(bytes.NewReader(c.reencodeAsRequest()), lim)
}

func (c Canonical) reencodeAsRequest() []byte {
	req := SweepRequest{
		Workloads: c.Workloads,
		Policies:  c.Policies,
		Ratios:    c.Ratios,
		Swaps:     c.Swaps,
		Trials:    c.Trials,
		Scale:     c.Scale,
		System:    &SystemOverride{CPUs: c.CPUs, RegionPTEs: c.RegionPTEs, PageCache: c.PageCache, Fault: c.Fault},
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}

// SweepSpec expands the canonical sweep into the experiments vocabulary.
func (c Canonical) SweepSpec() experiments.SweepSpec {
	base := core.DefaultSystemConfig()
	base.CPUs = c.CPUs
	if c.PageCache {
		base.PageCache = pagecache.DefaultConfig()
	}
	if c.Fault != "" {
		plan, _ := fault.Preset(c.Fault)
		base.Fault = plan
		if c.PageCache && plan.TargetsFile() {
			// Degraded file device + page cache arms the hard dirty
			// throttle, exactly as the batch ext3 figure configures its
			// cells — so warmed stores answer both.
			base.PageCache = pagecache.DegradedConfig()
		}
	}
	swaps := make([]core.SwapKind, len(c.Swaps))
	for i, s := range c.Swaps {
		swaps[i], _ = swapByName(s)
	}
	return experiments.SweepSpec{
		Workloads: c.Workloads,
		Policies:  c.Policies,
		Base:      base,
		Ratios:    c.Ratios,
		Swaps:     swaps,
	}
}

// Options builds the experiment options every cell of this sweep runs
// under. Checkpoint/Veto/Progress are the caller's to attach; everything
// that enters the cache key (trials, scale, seed, fanout) comes from the
// canonical form and the server seed, so enumeration and execution agree
// on keys exactly.
func (c Canonical) Options(seed uint64) experiments.Options {
	return experiments.Options{
		Trials:      c.Trials,
		Scale:       c.Scale,
		Seed:        seed,
		RegionPTEs:  c.RegionPTEs,
		Parallelism: 1,
	}
}
