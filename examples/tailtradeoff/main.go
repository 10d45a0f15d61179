// Tailtradeoff: reproduce the paper's key serving-workload insight
// (Figs. 3 and 12) — choosing a replacement policy is not just about
// throughput. Under SSD swap, MG-LRU trades worse read tails for better
// write tails; under ZRAM swap Clock strictly wins the tails. This
// example runs YCSB-A under both policies on both media and prints the
// latency distributions side by side.
package main

import (
	"fmt"
	"log"

	"mglrusim"
)

func main() {
	w := mglrusim.NewYCSB(mglrusim.YCSBDefaults(mglrusim.YCSBA))

	for _, medium := range []mglrusim.SwapKind{mglrusim.SwapSSD, mglrusim.SwapZRAM} {
		sys := mglrusim.SystemAt(0.5, medium)
		fmt.Printf("=== YCSB-A, 50%% capacity, %s swap ===\n", medium)

		type result struct {
			name       string
			read, wrte *mglrusim.LatencyRecorder
		}
		var results []result
		for _, p := range []struct {
			name string
			mk   mglrusim.PolicyFactory
		}{
			{"clock", mglrusim.NewClock},
			{"mglru", mglrusim.NewMGLRU},
		} {
			m, err := mglrusim.RunTrial(w, p.mk, sys, 42, 9)
			if err != nil {
				log.Fatalf("%s/%s: %v", medium, p.name, err)
			}
			results = append(results, result{p.name, m.ReadLat, m.WriteLat})
		}

		for _, class := range []string{"read", "write"} {
			fmt.Printf("\n%s latency        clock        mglru   mglru/clock\n", class)
			clock, mglru := results[0].read.Tail(), results[1].read.Tail()
			if class == "write" {
				clock, mglru = results[0].wrte.Tail(), results[1].wrte.Tail()
			}
			for i, p := range mglrusim.TailPoints {
				a, b := clock[i], mglru[i]
				fmt.Printf("  p%-7g %10.2fms %10.2fms %10.2f\n", p, a/1e6, b/1e6, ratio(b, a))
			}
		}
		fmt.Println()
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
