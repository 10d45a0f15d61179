package fault

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/zram"
)

// How a wrappedWriteScenario's procs write.
const (
	writeReference = iota // blocking referenceWritePage
	writeBlocking         // WritePage
	writeStepped          // suspended, through WriteStep
)

// wrappedWriteScenario runs three procs on two CPUs that charge CPU,
// read and write pages on the wrapped device mk makes (traced), each
// write the given way, and returns a log of every write with its time
// and error, then the device's stats, what it injected and its trace.
func wrappedWriteScenario(mk func(e *sim.Engine, rng *sim.RNG) *Device, seed uint64, mode int) string {
	e := sim.NewEngine(2)
	e.SetQuantum(10 * sim.Microsecond)
	rng := sim.NewRNG(seed)
	d := mk(e, rng.Stream(9))
	tr := telemetry.New(telemetry.Config{})
	tr.Bind(e.Now)
	d.SetTracer(tr)
	var log strings.Builder
	write := func(v *sim.Env, slot swap.Slot, vpn int64) error {
		if mode == writeReference {
			return d.referenceWritePage(v, slot, vpn, 1)
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
				var w swap.WriteWalk
				i := 0
				step := func() bool {
					for i < 80 {
						switch at {
						case charge:
							at = pick
							if !v.TryCharge(sim.Duration(1+prng.Intn(200)) * sim.Microsecond) {
								return true
							}
						case pick:
							slot := swap.Slot(prng.Intn(32))
							if prng.Bool(0.2) {
								w.Slot = slot
								return false
							}
							w = swap.WriteWalk{Slot: slot, VPN: int64(p*100 + i), Version: 1}
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
				for i < 80 {
					if step() {
						v.Suspend(step)
					}
					if i < 80 {
						err := d.ReadPage(v, w.Slot, int64(w.Slot), 1)
						fmt.Fprintf(&log, "%d w%d read %d %v\n", e.Now(), p, w.Slot, err)
						i, at = i+1, charge
					}
				}
				return
			}
			for i := 0; i < 80; i++ {
				v.Charge(sim.Duration(1+prng.Intn(200)) * sim.Microsecond)
				slot := swap.Slot(prng.Intn(32))
				if prng.Bool(0.2) {
					err := d.ReadPage(v, slot, int64(slot), 1)
					fmt.Fprintf(&log, "%d w%d read %d %v\n", e.Now(), p, slot, err)
					continue
				}
				err := write(v, slot, int64(p*100+i))
				fmt.Fprintf(&log, "%d w%d write %d %v\n", e.Now(), p, slot, err)
			}
		})
	}
	err := e.Run()
	fmt.Fprintf(&log, "err=%v now=%d stats=%+v injected=%+v\n", err, e.Now(), d.Stats(), d.FaultStats())
	var trace bytes.Buffer
	if err := tr.WriteTrace(&trace); err != nil {
		panic(err)
	}
	log.Write(trace.Bytes())
	return log.String()
}

// wrapPlan is a plan with frequent storms, half of them stalls, and
// write errors that the given retry budget sometimes cannot absorb.
func wrapPlan(retries int) Plan {
	return Plan{
		Storms: StormConfig{
			Rate:         1000,
			MeanDuration: 300 * sim.Microsecond,
			ExtraLatency: 100 * sim.Microsecond,
			Jitter:       0.5,
			StallProb:    0.5,
		},
		ReadErrors:  ReadErrorConfig{Prob: 0.05, MaxRetries: 2, Backoff: 50 * sim.Microsecond},
		WriteErrors: WriteErrorConfig{Prob: 0.3, MaxRetries: retries, Backoff: 50 * sim.Microsecond},
	}
}

func smallSSD(e *sim.Engine, rng *sim.RNG) *swap.SSD {
	cfg := ssdCfg()
	cfg.ReadLatency, cfg.WriteLatency = 200*sim.Microsecond, 300*sim.Microsecond
	cfg.QueueDepth, cfg.MaxDirtyWrites = 2, 3
	return swap.NewSSD(cfg, e, rng)
}

func classOf(vpn int64) zram.ContentClass { return zram.ContentClass(vpn % 3) }

// wrappedDevices are the wrapped media a wrappedWriteScenario runs on:
// an SSD whose writeback window makes writers stall, ZRAM whose pool
// limit stalls the writer, and ZRAM whose pool spills to a backing SSD.
var wrappedDevices = []struct {
	name, covers string // covers is a stat the scenario must move
	mk           func(e *sim.Engine, rng *sim.RNG) *Device
}{
	{"ssd", "WriteStalls", func(e *sim.Engine, rng *sim.RNG) *Device {
		return Wrap(smallSSD(e, rng.Stream(1)), wrapPlan(2), nil, rng.Stream(2))
	}},
	{"zram-stall", "PoolStalls", func(e *sim.Engine, rng *sim.RNG) *Device {
		plan := wrapPlan(2)
		plan.ZRAM = ZRAMPressureConfig{MemLimitBytes: 8 << 10, StallDelay: 40 * sim.Microsecond}
		z := swap.NewZRAM(swap.DefaultZRAMConfig(), rng.Stream(1), classOf)
		return Wrap(z, plan, nil, rng.Stream(2))
	}},
	{"zram-writeback", "WritebackPages", func(e *sim.Engine, rng *sim.RNG) *Device {
		plan := wrapPlan(2)
		plan.ZRAM = ZRAMPressureConfig{MemLimitBytes: 8 << 10, Writeback: true}
		z := swap.NewZRAM(swap.DefaultZRAMConfig(), rng.Stream(1), classOf)
		return Wrap(z, plan, smallSSD(e, rng.Stream(3)), rng.Stream(2))
	}},
}

// TestWrappedWriteMatchesReference holds the wrapped writes to the
// blocking reference writes: procs writing through WritePage, or running
// suspended and writing through WriteStep, log the same writes, errors,
// times, stats, injections and trace as procs writing through
// referenceWritePage, on every wrapped medium.
func TestWrappedWriteMatchesReference(t *testing.T) {
	for _, dv := range wrappedDevices {
		for seed := uint64(1); seed <= 4; seed++ {
			want := wrappedWriteScenario(dv.mk, seed, writeReference)
			if !strings.Contains(want, "err=<nil>") {
				t.Fatalf("%s seed %d: the scenario failed:\n%s", dv.name, seed, want)
			}
			if !strings.Contains(want, "hard write error") {
				t.Fatalf("%s seed %d: no write ran out of retries", dv.name, seed)
			}
			for _, stat := range []string{"StormDelay", "StallStorms", "WriteRetries", dv.covers} {
				if strings.Contains(want, stat+":0 ") {
					t.Fatalf("%s seed %d: the scenario leaves %s at 0", dv.name, seed, stat)
				}
			}
			for _, mode := range []int{writeBlocking, writeStepped} {
				if got := wrappedWriteScenario(dv.mk, seed, mode); got != want {
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
