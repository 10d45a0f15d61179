package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
)

// TestAgingMatchesReference holds the aging daemon to the blocking
// reference daemon: for every registered workload, with the page cache
// off and on, untraced and traced, and with the auditor off and on, both
// give deeply equal Metrics, and traced trials give identical trace and
// counter bytes. MG-LRU ages; Clock's daemon only polls.
func TestAgingMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs sixteen trials per workload and policy")
	}
	policies := map[string]core.PolicyFactory{
		"mglru": func() policy.Policy { return mglru.New(mglru.Default()) },
		"clock": func() policy.Policy { return clock.New(clock.DefaultConfig()) },
	}
	for _, name := range experiments.WorkloadNames() {
		for _, polName := range []string{"mglru", "clock"} {
			mk := policies[polName]
			for _, cached := range []bool{false, true} {
				for _, audit := range []bool{false, true} {
					sys := core.DefaultSystemConfig()
					mode := "nocache"
					if cached {
						sys.PageCache = pagecache.DefaultConfig()
						mode = "pagecache"
					}
					if audit {
						sys.VMM.Audit = true
						mode += "/audit"
					}
					t.Run(name+"/"+polName+"/"+mode, func(t *testing.T) {
						spec := experiments.WorkloadByName(name, 0.1)
						run := func(ref, traced bool) (core.Metrics, []byte) {
							var opts core.TrialOptions
							if traced {
								opts.Telemetry = telemetry.New(telemetry.Config{MetricsInterval: sim.Millisecond})
							}
							trial := core.RunTrialOpts
							if ref {
								trial = core.RunTrialAgingReference
							}
							m, err := trial(spec.Make(), mk, sys, 11, 12, opts)
							if err != nil {
								t.Fatal(err)
							}
							var out bytes.Buffer
							if traced {
								if err := opts.Telemetry.WriteTrace(&out); err != nil {
									t.Fatal(err)
								}
								if err := opts.Telemetry.WriteCounters(&out); err != nil {
									t.Fatal(err)
								}
							}
							return m, out.Bytes()
						}
						for _, traced := range []bool{false, true} {
							got, gotTrace := run(false, traced)
							want, wantTrace := run(true, traced)
							if polName == "mglru" && got.Policy.AgingRuns == 0 {
								t.Fatal("the trial made no aging pass")
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("traced=%v: metrics differ from the reference:\n got %+v\nwant %+v", traced, got, want)
							}
							if traced && len(gotTrace) == 0 {
								t.Fatal("the traced trial wrote no trace")
							}
							if !bytes.Equal(gotTrace, wantTrace) {
								t.Errorf("traced=%v: trace bytes differ from the reference (%d vs %d bytes)", traced, len(gotTrace), len(wantTrace))
							}
						}
					})
				}
			}
		}
	}
}
