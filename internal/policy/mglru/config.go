// Package mglru implements the Multi-Generational LRU replacement policy
// that the paper characterizes: multiple generation lists replacing the
// active/inactive pair, a background aging walk that scans page tables
// linearly (gated by a bloom filter over PMD regions), an eviction path
// that exploits page-table spatial locality around accessed pages, and a
// PID-controlled tier mechanism protecting frequently-refaulting
// file-backed pages.
//
// Every variant the paper evaluates is a Config of this package:
//
//	Default()   — kernel defaults: 4 generations, bloom-filtered aging
//	Gen14()     — 2^14 generations, so aging can always create a new
//	              youngest generation (§V-B)
//	ScanAll()   — aging scans every region (bloom disabled, always pass)
//	ScanNone()  — aging scans nothing; A bits are harvested only by the
//	              eviction thread's rmap + spatial scans
//	ScanRand(p) — aging scans each region with probability p
package mglru

import (
	"fmt"

	"mglrusim/internal/policy"
)

// ScanMode selects how the aging walk decides which PMD regions to scan.
type ScanMode int

const (
	// ModeBloom consults the bloom filter populated by the previous walk
	// and by the eviction thread (the kernel default).
	ModeBloom ScanMode = iota
	// ModeAll scans every region ("Scan-All").
	ModeAll
	// ModeNone scans no regions ("Scan-None").
	ModeNone
	// ModeRand scans each region with probability RandProb ("Scan-Rand").
	ModeRand
)

// String implements fmt.Stringer.
func (m ScanMode) String() string {
	switch m {
	case ModeBloom:
		return "bloom"
	case ModeAll:
		return "all"
	case ModeNone:
		return "none"
	case ModeRand:
		return "rand"
	}
	return fmt.Sprintf("ScanMode(%d)", int(m))
}

// Config parameterizes MG-LRU.
type Config struct {
	// VariantName labels this configuration in reports; empty derives a
	// name from the parameters.
	VariantName string
	// MaxGens is the maximum number of generations (kernel default 4,
	// "to double the number of lists used by Clock"). Gen-14 uses 2^14.
	MaxGens int
	// MinGens is the minimum generations eviction requires before it
	// forces aging (kernel MIN_NR_GENS = 2).
	MinGens int
	// Mode selects the aging scan filter.
	Mode ScanMode
	// RandProb is the per-region scan probability for ModeRand.
	RandProb float64
	// Tiers is the number of refault-tracking tiers (kernel: 4).
	Tiers int
	// SpatialScan enables the eviction thread's scan of PTEs surrounding
	// an accessed page found via the reverse map (§III-C). On by default;
	// the ablation benches switch it off.
	SpatialScan bool
	// TierProtection enables PID-controlled protection of higher tiers
	// (§III-D).
	TierProtection bool
	// PIDKp and PIDKi are controller gains on tier refault imbalance.
	PIDKp, PIDKi float64
	// BloomDensityNum/Den: a scanned region is added to the next walk's
	// filter when accessed*Den >= present*Num. The default is 1/16, a
	// looser bar than the kernel's "at least one accessed PTE per 8-PTE
	// cache line" (§III-B); a zero Den selects it.
	BloomDensityNum, BloomDensityDen int
	// ScanBatch bounds eviction-pass work per requested page.
	ScanBatch int
	// TrackRegions maintains per-generation region bitsets (with packed
	// intra-region occupancy counts) mirroring list membership. The
	// tracker is pure verification state — it never influences eviction
	// or aging decisions — and backs the auditor's generation/region
	// cross-check and the bloom-gated-walk soundness tests. Off by
	// default; dense per-generation state makes it unsuitable for Gen-14.
	TrackRegions bool
	// Costs is the shared scanning cost model.
	Costs policy.Costs
}

// Default returns the kernel-default MG-LRU configuration.
func Default() Config {
	return Config{
		VariantName:     "mglru",
		MaxGens:         4,
		MinGens:         2,
		Mode:            ModeBloom,
		Tiers:           4,
		SpatialScan:     true,
		TierProtection:  true,
		PIDKp:           1.0,
		PIDKi:           0.1,
		BloomDensityNum: 1,
		BloomDensityDen: 16,
		ScanBatch:       32,
		Costs:           policy.DefaultCosts(),
	}
}

// Gen14 returns the paper's Gen-14 variant: 2^14 generations, everything
// else default.
func Gen14() Config {
	c := Default()
	c.VariantName = "gen14"
	c.MaxGens = 1 << 14
	return c
}

// ScanAll returns the Scan-All variant.
func ScanAll() Config {
	c := Default()
	c.VariantName = "scan-all"
	c.Mode = ModeAll
	return c
}

// ScanNone returns the Scan-None variant.
func ScanNone() Config {
	c := Default()
	c.VariantName = "scan-none"
	c.Mode = ModeNone
	return c
}

// ScanRand returns the Scan-Rand variant with scan probability p
// (the paper uses 0.5).
func ScanRand(p float64) Config {
	c := Default()
	c.VariantName = "scan-rand"
	c.Mode = ModeRand
	c.RandProb = p
	return c
}

// normalize fills defaults and validates.
func (c *Config) normalize() {
	if c.MaxGens < 2 {
		panic("mglru: MaxGens must be at least 2")
	}
	if c.MaxGens > 1<<15 {
		panic("mglru: MaxGens too large for list identifiers")
	}
	if c.MinGens < 2 {
		c.MinGens = 2
	}
	if c.MinGens > c.MaxGens {
		panic("mglru: MinGens exceeds MaxGens")
	}
	if c.Tiers <= 0 {
		c.Tiers = 4
	}
	if c.ScanBatch <= 0 {
		c.ScanBatch = 32
	}
	if c.BloomDensityDen <= 0 {
		d := Default()
		c.BloomDensityNum, c.BloomDensityDen = d.BloomDensityNum, d.BloomDensityDen
	}
	if c.Mode == ModeRand && (c.RandProb <= 0 || c.RandProb > 1) {
		c.RandProb = 0.5
	}
	if c.VariantName == "" {
		c.VariantName = "mglru-" + c.Mode.String()
	}
}
