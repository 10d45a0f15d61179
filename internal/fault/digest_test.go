package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/swap"
)

// opScriptDigests pins, per plan, the SHA-256 of runOpScript's
// observable behaviour. No preset reaches zram pool pressure, so the two
// zram entries are that path's only byte gate.
var opScriptDigests = []struct{ name, digest string }{
	{"mild", "6f645a254c0e2af4e228954e321a54a3137fc40b0c27602c72e51e3a081318fe"},
	{"severe", "e7702115b5dd08f258aa075d23e927b9fd7c7e8841e6f5e6c4a285ff76391ad7"},
	{"file-mild", "47d99b76df70439068d1ca72fe8754410734f0720a56a50879783c24360d6653"},
	{"file-severe", "247f6a072995bc419ffd217ee912952f34d074d2fd5e6c9b23054a7709412fc3"},
	{"zram-writeback", "f10d9a7aad76685afc622d9ff1c7bb1bf0e30dd03315638c311dcbff4491b8e3"},
	{"zram-pool-stall", "7ad0343bfec11d1a72ec59f1f3341d1659511af83d82bf20bcd9fa5139fec622"},
}

// runOpScript drives a fixed mix of writes, reads and prefetches through
// one wrapper and hashes every completion instant, every returned error
// (in order) and the final FaultStats.
func runOpScript(t *testing.T, name string) string {
	t.Helper()
	e := sim.NewEngine(2)
	rng := sim.NewRNG(0x0B5C)
	ssd := func() swap.Device { return swap.NewSSD(ssdCfg(), e, rng.Stream(1)) }
	var d *Device
	switch name {
	case "mild":
		d = Wrap(ssd(), Mild(), nil, rng.Stream(2))
	case "severe":
		d = Wrap(ssd(), Severe(), nil, rng.Stream(2))
	case "file-mild":
		d = WrapFile(ssd(), MildFile(), rng.Stream(2))
	case "file-severe":
		d = WrapFile(ssd(), SevereFile(), rng.Stream(2))
	case "zram-writeback":
		plan := Severe()
		plan.ZRAM = ZRAMPressureConfig{MemLimitBytes: 16 << 10, Writeback: true}
		d = zramRig(e, rng, plan, true)
	case "zram-pool-stall":
		plan := Severe()
		plan.ZRAM = ZRAMPressureConfig{MemLimitBytes: 16 << 10, StallDelay: 2 * sim.Millisecond}
		d = zramRig(e, rng, plan, false)
	default:
		t.Fatalf("unknown op script %q", name)
	}

	h := sha256.New()
	note := func(v *sim.Env, err error) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.Now()))
		h.Write(b[:])
		if err != nil {
			fmt.Fprintf(h, "err %v\n", err)
		}
	}
	e.Spawn("ops", false, func(v *sim.Env) {
		for i := 0; i < 600; i++ {
			slot := swap.Slot(i % 32)
			note(v, writePage(v, d, slot, int64(i), uint32(i)))
			note(v, d.ReadPage(v, swap.Slot((i*7)%32), int64(i), uint32(i)))
			note(v, d.PrefetchPage(v, swap.Slot((i*7+1)%32), int64(i+1), uint32(i)))
			v.Sleep(5 * sim.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(h, "%+v", d.FaultStats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestOpScriptDigest pins the fault plane's observable behaviour — the
// timing of every operation, the errors it returns and what it counts —
// for each preset and for both zram pool-pressure modes.
func TestOpScriptDigest(t *testing.T) {
	for _, c := range opScriptDigests {
		if got := runOpScript(t, c.name); got != c.digest {
			t.Errorf("%s: op-script digest = %s, want %s", c.name, got, c.digest)
		}
	}
}
