package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mglrusim/internal/sim"
)

// TestZipfianGoldenDraws pins the first 4096 keys of every generator the
// workloads build at scales 0.2 and 1: ycsb's items, serve's objects and
// sessions and tpch's probe targets. The digests were taken from the
// generator that called math.Pow on every draw, so they hold the
// bracketed draw to its bytes.
func TestZipfianGoldenDraws(t *testing.T) {
	cases := []struct {
		n         int64
		theta     float64
		scrambled bool
		want      string
	}{
		// ycsb items, scales 0.2 and 1.
		{2800, 0.99, true, "d4fb95d6878e50bbecf857d20c06187bf2b400ea67b5239a856db6015a7e1cfd"},
		{14000, 0.99, true, "96db61651c79532fdaec64bb84aa2333db0618d43787a7f1ee3f2815c0e11039"},
		// serve objects.
		{600, 0.99, true, "df37be9392b4fa3f1296ca8e4fe152f372e1087b0ae9f3571b2b74e1f621c108"},
		{3000, 0.99, true, "67d8511424a827f4eed5f41b99730a33f57860e0872d3c87d53c5d6c8b1576ac"},
		// serve sessions.
		{1000, 0.8, true, "892f170f2f56809c93073afa70c8005e443c2aaa77e10c82371601e1281d1dad"},
		{5000, 0.8, true, "d7a95c4482ed866603ff115b47893833ead1901025eafc48b94dab1289e6b6bc"},
		// tpch probe targets: theta 0.85 keeps math.Pow.
		{256, 0.85, false, "5fe44dbdbc99902d12d9e7d65a2dc571cb244804540abc576dc70af3f27072f9"},
		{1280, 0.85, false, "265951334f2e03af439a3037054bb406b397fe4106c7403d5301610baa5dda5e"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d/theta=%v/scrambled=%v", c.n, c.theta, c.scrambled), func(t *testing.T) {
			z := NewZipfian(c.n, c.theta)
			if c.scrambled {
				z = NewScrambledZipfian(c.n, c.theta)
			}
			rng := sim.NewRNG(20240)
			h := sha256.New()
			var buf [8]byte
			for i := 0; i < 4096; i++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(z.Next(rng)))
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestZipfianKeyBoundary walks x ulp by ulp across the point where the
// key steps from n/2-1 to n/2. Near it the bracket straddles the step,
// so bracketKey must give up and key must fall back to math.Pow; on
// either side the bracket decides. Every key must be pow's.
func TestZipfianKeyBoundary(t *testing.T) {
	for _, c := range []struct {
		n     int64
		theta float64
	}{{1 << 22, 0.99}, {14000, 0.99}, {1 << 22, 0.9}, {5000, 0.8}} {
		t.Run(fmt.Sprintf("n=%d/theta=%v", c.n, c.theta), func(t *testing.T) {
			z := NewZipfian(c.n, c.theta)
			if z.powInt == 0 {
				t.Fatalf("alpha %v takes no bracketed path", z.alpha)
			}
			x := math.Pow(0.5, 1/z.alpha)
			for i := 0; i < 1024; i++ {
				x = math.Nextafter(x, 0)
			}
			fallbacks, bracketed := 0, 0
			keys := map[int64]bool{}
			for i := 0; i < 2048; i++ {
				want := int64(float64(z.n) * math.Pow(x, z.alpha))
				if _, ok := z.bracketKey(x); ok {
					bracketed++
				} else {
					fallbacks++
				}
				if got := z.key(x); got != want {
					t.Fatalf("x=%v: key %d, math.Pow gives %d", x, got, want)
				}
				keys[want] = true
				x = math.Nextafter(x, 1)
			}
			if !keys[c.n/2-1] || !keys[c.n/2] {
				t.Fatalf("the walk did not cross from key %d to %d: %v", c.n/2-1, c.n/2, keys)
			}
			if fallbacks == 0 || bracketed == 0 {
				t.Fatalf("%d fallbacks and %d bracketed keys; want both", fallbacks, bracketed)
			}
		})
	}
}

// FuzzZipfianKeyMatchesPow holds the key of a draw past key 1 to
// int64(float64(n)*math.Pow(x, alpha)) for arbitrary n, skew and x, and
// for the 255 floats above x.
func FuzzZipfianKeyMatchesPow(f *testing.F) {
	f.Add(int64(14000), 0.99, 0.95)
	f.Add(int64(1<<22), 0.99, 0.9931160484209338)
	f.Add(int64(5000), 0.8, 0.3)
	f.Add(int64(1000), 0.5, 0.01)
	f.Add(int64(1280), 0.85, 0.97)
	f.Add(int64(600), 0.9, 0.0078125)
	f.Fuzz(func(t *testing.T, n int64, theta, x float64) {
		if n <= 0 || n > 1<<22 || !(theta > 0 && theta < 1) {
			t.Skip()
		}
		z := NewZipfian(n, theta)
		for i := 0; i < 256; i++ {
			want := int64(float64(z.n) * math.Pow(x, z.alpha))
			if got := z.key(x); got != want {
				t.Fatalf("n=%d theta=%v x=%v: key %d, math.Pow gives %d", n, theta, x, got, want)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	})
}
