package core

import "mglrusim/internal/workload"

// FileSpans exposes fileSpans to the external test package, which imports
// the workload registry (itself an importer of core).
var FileSpans = fileSpans

// RunTrialReference is RunTrialOpts with every app thread run by
// referenceThread.
func RunTrialReference(w workload.Workload, mk PolicyFactory, sys SystemConfig,
	workloadSeed, systemSeed uint64, opts TrialOptions) (Metrics, error) {
	opts.thread = referenceThread
	return RunTrialOpts(w, mk, sys, workloadSeed, systemSeed, opts)
}

// RunTrialAgingReference is RunTrialOpts with the aging daemon run by
// referenceAging.
func RunTrialAgingReference(w workload.Workload, mk PolicyFactory, sys SystemConfig,
	workloadSeed, systemSeed uint64, opts TrialOptions) (Metrics, error) {
	opts.aging = referenceAging
	return RunTrialOpts(w, mk, sys, workloadSeed, systemSeed, opts)
}
