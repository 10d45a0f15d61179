package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"mglrusim/internal/core"
	"mglrusim/internal/experiments"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/policy"
	"mglrusim/internal/policy/clock"
	"mglrusim/internal/policy/mglru"
	"mglrusim/internal/sim"
	"mglrusim/internal/stats"
	"mglrusim/internal/telemetry"
)

// evictionDigests pins, per workload and policy, the digest of the
// trials evictionVariants lists. They were taken from the blocking
// reclaim, eviction and device-write code, so the resumable walks must
// give the trials that code gave.
var evictionDigests = map[string]string{
	"pagerank/clock": "d6aea5916883e57f0342d2857c5180f39cc006cfeea101b5fa9bd3128fdb4cf8",
	"pagerank/mglru": "8f8ddf90ba644908546b35abfe24c40fc704d9ada3de0872829c0539d85b7446",
	"serve/clock":    "dc3c929175e03dc564920b9234b2a2b1047989a4613b4b20ba5f7da1fefc378a",
	"serve/mglru":    "b2fd0991f978009391e327258802eb46949584b685385d03c9db66906b965068",
	"tpch/clock":     "6db21262cff88609445757307f9a5218ed2a890d990beff401d6e5bbd756eda5",
	"tpch/mglru":     "20f9a4a2a0cc195107ed4c30a1597d8a9444ce914ecf012b21ac7767d1cb62b1",
	"ycsb-a/clock":   "5760cf0d3e2de4ed7ab1d3192f4a0876003a0790c136515de672aa60c5210c9a",
	"ycsb-a/mglru":   "aaa9446deeffed3a6497265e899258c603a30f0081f9504f3fe04e769b1afaa1",
	"ycsb-b/clock":   "905a1378b02593f480f29c0ad4192fb9d111660e81ec0b9e7fe9e9ce830fec17",
	"ycsb-b/mglru":   "8d5552abacd4231d17e43628d81265d77cef0523205f8e5798b528c31a759595",
	"ycsb-c/clock":   "1f4ff8ef54c685deb0625e0162572724301a7626e2a10b9b1208a764d93e6683",
	"ycsb-c/mglru":   "619773e5cf710860792f1fa1eddda0f81d4847160967e4debc02cec089083289",
}

// evictionVariant is one trial configuration of the eviction digests.
type evictionVariant struct {
	cached, audit, traced bool
	swap                  core.SwapKind
	plan                  string
}

// evictionPlans are the fault plans of the variants: latency storms with
// stalls, backed-off write retries, and zram pool pressure that stalls
// the writer or spills to the backing SSD, on both devices; and plans
// whose write retries run out, so a hard error ends a swap trial from
// inside an eviction, or the page cache absorbs the file device's.
var evictionPlans = map[string]fault.Plan{
	"stall":     evictionPlan(fault.TargetBoth, false, 8),
	"writeback": evictionPlan(fault.TargetBoth, true, 8),
	"hard":      evictionPlan(fault.TargetSwap, false, 1),
	"filehard":  evictionPlan(fault.TargetFile, false, 1),
}

func evictionPlan(target fault.DeviceTarget, writeback bool, retries int) fault.Plan {
	return fault.Plan{
		Target: target,
		Storms: fault.StormConfig{
			Rate:         20,
			MeanDuration: 5 * sim.Millisecond,
			ExtraLatency: sim.Millisecond,
			Jitter:       0.5,
			StallProb:    0.3,
		},
		WriteErrors: fault.WriteErrorConfig{Prob: 0.1, MaxRetries: retries, Backoff: 100 * sim.Microsecond},
		ZRAM:        fault.ZRAMPressureConfig{MemLimitBytes: 64 << 10, Writeback: writeback, StallDelay: 50 * sim.Microsecond},
	}
}

// evictionVariants lists every page cache, auditor and tracing mode on
// an SSD, then the zram device and the fault plans with the page cache
// off and on, untraced and traced.
func evictionVariants() []evictionVariant {
	var vs []evictionVariant
	for _, cached := range []bool{false, true} {
		for _, audit := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				vs = append(vs, evictionVariant{cached: cached, audit: audit, traced: traced, swap: core.SwapSSD})
			}
		}
	}
	for _, cached := range []bool{false, true} {
		for _, dp := range []struct {
			swap core.SwapKind
			plan string
		}{
			{core.SwapZRAM, ""},
			{core.SwapSSD, "stall"},
			{core.SwapZRAM, "stall"},
			{core.SwapZRAM, "writeback"},
			{core.SwapSSD, "hard"},
			{core.SwapSSD, "filehard"},
		} {
			for _, traced := range []bool{false, true} {
				vs = append(vs, evictionVariant{cached: cached, traced: traced, swap: dp.swap, plan: dp.plan})
			}
		}
	}
	return vs
}

// TestEvictionMatchesReference holds every trial's Metrics (latency
// samples included), or its error, and traced trials' trace and counter
// bytes to the digests the blocking code gave, for every registered
// workload under MG-LRU and Clock and every evictionVariants entry.
func TestEvictionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs 32 trials per workload and policy")
	}
	policies := map[string]core.PolicyFactory{
		"mglru": func() policy.Policy { return mglru.New(mglru.Default()) },
		"clock": func() policy.Policy { return clock.New(clock.DefaultConfig()) },
	}
	seen := 0
	for _, name := range experiments.WorkloadNames() {
		for _, polName := range []string{"clock", "mglru"} {
			key := name + "/" + polName
			t.Run(key, func(t *testing.T) {
				want, ok := evictionDigests[key]
				if !ok {
					t.Fatalf("no digest pinned for %s", key)
				}
				seen++
				spec := experiments.WorkloadByName(name, 0.1)
				h := sha256.New()
				var evicted, failed uint64
				for _, vr := range evictionVariants() {
					sys := core.DefaultSystemConfig()
					if vr.cached {
						sys.PageCache = pagecache.DefaultConfig()
					}
					sys.VMM.Audit = vr.audit
					sys.Swap = vr.swap
					sys.Fault = evictionPlans[vr.plan]
					var opts core.TrialOptions
					if vr.traced {
						opts.Telemetry = telemetry.New(telemetry.Config{MetricsInterval: sim.Millisecond})
					}
					m, err := core.RunTrialOpts(spec.Make(), policies[polName], sys, 11, 12, opts)
					fmt.Fprintf(h, "%+v\n", vr)
					if err != nil {
						if vr.plan != "hard" {
							t.Fatalf("%+v: %v", vr, err)
						}
						failed++
						fmt.Fprintf(h, "err: %v\n", err)
						continue
					}
					evicted += m.Policy.Evicted
					dumpMetrics(h, m)
					if vr.traced {
						if err := opts.Telemetry.WriteTrace(h); err != nil {
							t.Fatal(err)
						}
						if err := opts.Telemetry.WriteCounters(h); err != nil {
							t.Fatal(err)
						}
					}
				}
				if evicted == 0 {
					t.Fatal("the trials evicted nothing")
				}
				t.Logf("%d trials failed on a hard write error", failed)
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
	if seen != len(evictionDigests) {
		t.Errorf("ran %d workload/policy pairs but %d digests are pinned", seen, len(evictionDigests))
	}
}

// dumpMetrics writes every field of m, the latency recorders' samples
// in recording order included.
func dumpMetrics(w io.Writer, m core.Metrics) {
	for _, r := range []*stats.LatencyRecorder{m.ReadLat, m.WriteLat, m.FaultLat} {
		if r == nil {
			fmt.Fprintln(w, "nil")
			continue
		}
		fmt.Fprintln(w, r.Samples())
	}
	m.ReadLat, m.WriteLat, m.FaultLat = nil, nil, nil
	fmt.Fprintf(w, "%+v\n", m)
}
