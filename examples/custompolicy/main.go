// Custompolicy: implement a new replacement policy against the public
// Policy interface and benchmark it with the same harness as the
// built-ins. The policy here is plain FIFO — no accessed-bit scanning, no
// reverse-map walks, evict in arrival order. The paper (§V-B) notes that
// LRU approximations are known to be suboptimal for zipfian key-value
// caches and that production caches often use FIFO variants; this example
// tests that observation on YCSB-C.
package main

import (
	"fmt"
	"log"

	"mglrusim"
)

// fifo evicts pages in fault-in order. It never scans accessed bits, so
// its reclaim path costs no reverse-map walks at all.
type fifo struct {
	k     mglrusim.Kernel
	queue *mglrusim.List
	stats mglrusim.PolicyStats
}

// Name implements mglrusim.Policy.
func (f *fifo) Name() string { return "fifo" }

// Attach implements mglrusim.Policy.
func (f *fifo) Attach(k mglrusim.Kernel) {
	f.k = k
	f.queue = mglrusim.NewList(k.Mem(), 0)
}

// PageIn implements mglrusim.Policy: newest pages at the head.
func (f *fifo) PageIn(v *mglrusim.Env, fr mglrusim.FrameID, sh *mglrusim.Shadow) {
	if sh != nil {
		f.stats.Refaults++
	}
	f.queue.PushHead(fr)
}

// Reclaim implements mglrusim.Policy: evict strictly from the tail.
func (f *fifo) Reclaim(v *mglrusim.Env, target int) int {
	evicted := 0
	for evicted < target {
		fr := f.queue.PopTail()
		if fr == mglrusim.NilFrame {
			break
		}
		f.stats.Evicted++
		f.k.EvictPage(v, fr, mglrusim.Shadow{EvictedAt: v.Now()})
		evicted++
	}
	return evicted
}

// Age implements mglrusim.Policy: FIFO has no background work.
func (f *fifo) Age(v *mglrusim.Env) bool { return false }

// NeedsAging implements mglrusim.Policy.
func (f *fifo) NeedsAging() bool { return false }

// Stats implements mglrusim.Policy.
func (f *fifo) Stats() mglrusim.PolicyStats { return f.stats }

func main() {
	w := mglrusim.NewYCSB(mglrusim.YCSBDefaults(mglrusim.YCSBC))
	sys := mglrusim.DefaultSystemConfig()

	fmt.Println("YCSB-C (read-only, zipfian) at 50% capacity, SSD swap")
	fmt.Printf("%-8s %12s %10s %14s %14s\n", "policy", "mean-req", "faults", "p99", "p99.99")

	policies := []struct {
		name string
		mk   mglrusim.PolicyFactory
	}{
		{"clock", mglrusim.NewClock},
		{"mglru", mglrusim.NewMGLRU},
		{"fifo", func() mglrusim.Policy { return &fifo{} }},
	}
	for _, p := range policies {
		m, err := mglrusim.RunTrial(w, p.mk, sys, 42, 5)
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		tail := m.ReadLat.Tail() // at TailPoints: p50, p90, p99, p99.9, p99.99
		fmt.Printf("%-8s %10.2fµs %10d %12.2fms %12.2fms\n",
			p.name, m.ReadLat.Mean()/1e3, m.Counters.TotalFaults(),
			tail[2]/1e6, tail[4]/1e6)
	}
	fmt.Println("\nFIFO pays zero scanning cost; whether that beats LRU-style")
	fmt.Println("policies depends on how much their accessed-bit signal is worth")
	fmt.Println("under a zipfian request stream (paper §V-B).")
}
