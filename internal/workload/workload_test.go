package workload

import (
	"math"
	"testing"

	"mglrusim/internal/sim"
	"mglrusim/internal/zram"
)

func TestZipfianBounds(t *testing.T) {
	z := NewZipfian(1000, YCSBTheta)
	rng := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(10000, YCSBTheta)
	rng := sim.NewRNG(2)
	counts := make([]int, 10000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	// Head mass: top 1% of keys should capture a large share.
	head := 0
	for k := 0; k < 100; k++ {
		head += counts[k]
	}
	frac := float64(head) / draws
	if frac < 0.3 {
		t.Fatalf("top-1%% key mass = %.2f, want heavily skewed", frac)
	}
	// Key 0 must be the most popular for plain zipfian.
	for k := 1; k < 100; k++ {
		if counts[k] > counts[0]*2 {
			t.Fatalf("key %d more popular than key 0", k)
		}
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	z := NewScrambledZipfian(10000, YCSBTheta)
	rng := sim.NewRNG(3)
	counts := make([]int, 10000)
	for i := 0; i < 100000; i++ {
		counts[z.Next(rng)]++
	}
	// The hottest key should NOT be key 0 in general; hot keys scatter.
	hot := 0
	for k, c := range counts {
		if c > counts[hot] {
			hot = k
		}
	}
	if hot < 100 {
		t.Logf("hottest key is %d (may occasionally be small)", hot)
	}
	// Still heavily skewed: max count far above mean.
	mean := 100000.0 / 10000.0
	if float64(counts[hot]) < 20*mean {
		t.Fatalf("scrambled zipfian lost skew: max=%d mean=%.1f", counts[hot], mean)
	}
}

func TestZipfianDeterministic(t *testing.T) {
	z1 := NewScrambledZipfian(5000, YCSBTheta)
	z2 := NewScrambledZipfian(5000, YCSBTheta)
	r1, r2 := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 100; i++ {
		if z1.Next(r1) != z2.Next(r2) {
			t.Fatal("zipfian not deterministic")
		}
	}
}

func TestZetaLargeNFinite(t *testing.T) {
	z := NewZipfian(50_000_000, YCSBTheta)
	if math.IsNaN(z.zetan) || math.IsInf(z.zetan, 0) || z.zetan <= 0 {
		t.Fatalf("zetan = %v", z.zetan)
	}
	rng := sim.NewRNG(4)
	for i := 0; i < 1000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 50_000_000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestUniform(t *testing.T) {
	u := NewUniform(100)
	rng := sim.NewRNG(5)
	seen := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform coverage only %d/100", len(seen))
	}
}

func TestAddrSpaceAlignmentAndHoles(t *testing.T) {
	as := NewAddrSpace(64)
	a := as.Add("a", 100, false, zram.ClassStructured)
	b := as.Add("b", 50, true, zram.ClassRandom)
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Fatal("segments not region aligned")
	}
	if b.Base < a.End()+64 {
		t.Fatalf("no hole between segments: a ends %d, b starts %d", a.End(), b.Base)
	}
	if as.FootprintPages() != 150 {
		t.Fatalf("footprint = %d", as.FootprintPages())
	}
	if as.TableRegions()*64 < int(b.End()) {
		t.Fatal("regions do not cover the span")
	}
}

func TestAddrSpaceClassOf(t *testing.T) {
	as := NewAddrSpace(64)
	a := as.Add("a", 10, false, zram.ClassZeroHeavy)
	b := as.Add("b", 10, false, zram.ClassRandom)
	if as.ContentClass(int64(a.Base)) != zram.ClassZeroHeavy {
		t.Fatal("class of a wrong")
	}
	if as.ContentClass(int64(b.Base)) != zram.ClassRandom {
		t.Fatal("class of b wrong")
	}
}

func TestSegmentPageBounds(t *testing.T) {
	s := Segment{Base: 100, Pages: 5}
	if s.Page(0) != 100 || s.Page(4) != 104 {
		t.Fatal("Page addressing wrong")
	}
	if !s.Contains(104) || s.Contains(105) {
		t.Fatal("Contains wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range page")
		}
	}()
	s.Page(5)
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Ops: []Op{{Kind: OpBarrier}, {Kind: OpAccess, VPN: 3}}}
	var op Op
	if !s.Next(&op) || op.Kind != OpBarrier {
		t.Fatal("first op wrong")
	}
	if !s.Next(&op) || op.VPN != 3 {
		t.Fatal("second op wrong")
	}
	if s.Next(&op) {
		t.Fatal("stream should be exhausted")
	}
}
