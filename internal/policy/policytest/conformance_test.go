package policytest_test

import (
	"testing"

	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/policy/oracle"
	"mglrusim/internal/policy/policytest"
	"mglrusim/internal/policy/simple"
	"mglrusim/internal/workload"
)

// TestPolicyConformance runs the contract suite over every registered
// policy: Clock, all five MG-LRU variants, the scan-free baselines, and
// the exact-LRU oracle (which, as a policy.Policy, owes the same
// contract).
func TestPolicyConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"gen14", func() policy.Policy { return mglru.New(mglru.Gen14()) }},
		{"scan-all", func() policy.Policy { return mglru.New(mglru.ScanAll()) }},
		{"scan-none", func() policy.Policy { return mglru.New(mglru.ScanNone()) }},
		{"scan-rand", func() policy.Policy { return mglru.New(mglru.ScanRand(0.5)) }},
		{"fifo", func() policy.Policy { return simple.NewFIFO() }},
		{"random", func() policy.Policy { return simple.NewRandom() }},
		{"exact-lru", func() policy.Policy { return oracle.NewExactLRU() }},
	}
	for _, c := range cases {
		policytest.Conformance(t, c.name, c.mk)
	}
}

// TestConformanceBothLayouts runs the contract suite over the policies
// that read page tables directly (the MG-LRU variants and Clock) against
// the packed bit-plane table laid out in the scaled workloads' 64-PTE
// regions, where TestPolicyConformance uses the kernel's 512-PTE PMD
// regions: the aging walk and its bloom filter see eight times as many
// regions over the same pages, and must stay in contract under both
// layouts.
func TestConformanceBothLayouts(t *testing.T) {
	cases := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"clock", func() policy.Policy { return clock.New(clock.DefaultConfig()) }},
		{"mglru", func() policy.Policy { return mglru.New(mglru.Default()) }},
		{"gen14", func() policy.Policy { return mglru.New(mglru.Gen14()) }},
		{"scan-all", func() policy.Policy { return mglru.New(mglru.ScanAll()) }},
		{"scan-none", func() policy.Policy { return mglru.New(mglru.ScanNone()) }},
	}
	for _, c := range cases {
		policytest.ConformanceAt(t, "packed/"+c.name, workload.DefaultRegionPTEs, c.mk)
	}
}
