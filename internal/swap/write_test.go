package swap

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/zram"
)

// How a writeScenario's procs write.
const (
	writeReference = iota // blocking referenceWritePage
	writeBlocking         // WritePage
	writeStepped          // suspended, through WriteStep
)

// writeScenario runs three procs on two CPUs that charge CPU, read and
// write pages on the device mk makes (traced), each write the given way,
// and returns a log of every write with its time, then the device's
// stats and trace.
func writeScenario(mk func(e *sim.Engine, rng *sim.RNG) Device, seed uint64, mode int) string {
	e := sim.NewEngine(2)
	e.SetQuantum(10 * sim.Microsecond)
	rng := sim.NewRNG(seed)
	d := mk(e, rng.Stream(9))
	tr := telemetry.New(telemetry.Config{})
	tr.Bind(e.Now)
	d.(TracerSetter).SetTracer(tr)
	var log strings.Builder
	write := func(v *sim.Env, slot Slot, vpn int64) error {
		if mode == writeReference {
			switch d := d.(type) {
			case *SSD:
				return d.referenceWritePage(v, slot, vpn, 1)
			case *ZRAM:
				return d.referenceWritePage(v, slot, vpn, 1)
			}
		}
		return d.WritePage(v, slot, vpn, 1)
	}
	for p := 0; p < 3; p++ {
		prng := rng.Stream(uint64(p))
		e.Spawn(fmt.Sprintf("w%d", p), false, func(v *sim.Env) {
			if mode == writeStepped {
				// The step charges and writes; a read hands the proc back
				// to its coroutine.
				const (
					charge = iota
					pick
					write
				)
				at := charge
				var w WriteWalk
				i := 0
				step := func() bool {
					for i < 60 {
						switch at {
						case charge:
							at = pick
							if !v.TryCharge(sim.Duration(1+prng.Intn(40)) * sim.Microsecond) {
								return true
							}
						case pick:
							slot := Slot(prng.Intn(32))
							if prng.Bool(0.2) {
								w.Slot = slot
								return false
							}
							w = WriteWalk{Slot: slot, VPN: int64(p*100 + i), Version: 1}
							at = write
						case write:
							if d.WriteStep(v, &w) {
								return true
							}
							fmt.Fprintf(&log, "%d w%d write %d %v\n", e.Now(), p, w.Slot, w.Err)
							i, at = i+1, charge
						}
					}
					return false
				}
				for i < 60 {
					if step() {
						v.Suspend(step)
					}
					if i < 60 {
						if err := d.ReadPage(v, w.Slot, int64(w.Slot), 1); err != nil {
							panic(err)
						}
						i, at = i+1, charge
					}
				}
				return
			}
			for i := 0; i < 60; i++ {
				v.Charge(sim.Duration(1+prng.Intn(40)) * sim.Microsecond)
				slot := Slot(prng.Intn(32))
				if prng.Bool(0.2) {
					if err := d.ReadPage(v, slot, int64(slot), 1); err != nil {
						panic(err)
					}
					continue
				}
				err := write(v, slot, int64(p*100+i))
				fmt.Fprintf(&log, "%d w%d write %d %v\n", e.Now(), p, slot, err)
			}
		})
	}
	err := e.Run()
	fmt.Fprintf(&log, "err=%v now=%d stats=%+v\n", err, e.Now(), d.Stats())
	var trace bytes.Buffer
	if err := tr.WriteTrace(&trace); err != nil {
		panic(err)
	}
	log.Write(trace.Bytes())
	return log.String()
}

// writeDevices are the media a writeScenario runs on: an SSD whose
// writeback window is small enough that writers stall, and ZRAM.
var writeDevices = []struct {
	name string
	mk   func(e *sim.Engine, rng *sim.RNG) Device
}{
	{"ssd", func(e *sim.Engine, rng *sim.RNG) Device {
		cfg := DefaultSSDConfig()
		cfg.ReadLatency, cfg.WriteLatency = 200*sim.Microsecond, 300*sim.Microsecond
		cfg.QueueDepth, cfg.MaxDirtyWrites = 2, 3
		return NewSSD(cfg, e, rng)
	}},
	{"zram", func(e *sim.Engine, rng *sim.RNG) Device {
		return NewZRAM(DefaultZRAMConfig(), rng, func(vpn int64) zram.ContentClass { return zram.ContentClass(vpn % 3) })
	}},
}

// TestWriteMatchesReference holds the media's writes to the blocking
// reference writes: procs writing through WritePage, or running
// suspended and writing through WriteStep, log the same writes, times,
// stats and trace as procs writing through referenceWritePage.
func TestWriteMatchesReference(t *testing.T) {
	for _, dv := range writeDevices {
		for seed := uint64(1); seed <= 4; seed++ {
			want := writeScenario(dv.mk, seed, writeReference)
			if !strings.Contains(want, "err=<nil>") {
				t.Fatalf("%s seed %d: the scenario failed:\n%s", dv.name, seed, want)
			}
			if dv.name == "ssd" && strings.Contains(want, "WriteStalls:0 ") {
				t.Fatalf("%s seed %d: no write stalled", dv.name, seed)
			}
			for _, mode := range []int{writeBlocking, writeStepped} {
				if got := writeScenario(dv.mk, seed, mode); got != want {
					t.Errorf("%s seed %d mode %d: log differs from the reference writes':\n%s", dv.name, seed, mode, firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(g), len(w))
}
