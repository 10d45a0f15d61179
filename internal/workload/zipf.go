package workload

import (
	"math"

	"mglrusim/internal/sim"
)

// Zipfian generates keys in [0, n) with the YCSB zipfian distribution
// (Gray et al.'s algorithm, as used by the YCSB ScrambledZipfianGenerator).
// Lower keys are exponentially more popular; Scrambled spreads the hot
// keys across the keyspace with a hash.
type Zipfian struct {
	n         int64
	alpha     float64
	zetan     float64
	eta       float64
	half      float64 // 1 + 0.5^theta, the bound of key 1's draws
	scrambled bool

	// powInt is alpha's integer part as math.Pow splits it, and lo and
	// hi bracket the factor its fractional part contributes; powInt is 0
	// where that factor is not within 2^-40 of 1 (see bracketKey).
	powInt int64
	lo, hi float64
}

// YCSBTheta is the skew constant YCSB uses.
const YCSBTheta = 0.99

// NewZipfian builds a zipfian generator over [0, n) with skew theta.
func NewZipfian(n int64, theta float64) *Zipfian {
	if n <= 0 {
		panic("workload: zipfian needs positive n")
	}
	z := &Zipfian{n: n}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1.0 + math.Pow(0.5, theta)
	// Split alpha as pow does. For theta 0.99, 0.9 and 0.8 the
	// fractional part is alpha's rounding error (-8.5e-14, 1.8e-15 and
	// 8.9e-16); for theta 0.5 it is 0, and pow's factor is exactly 1.
	yi, yf := math.Modf(z.alpha)
	if yf > 0.5 {
		yf--
		yi++
	}
	if math.Abs(yf) < 0x1p-40 && yi >= 1 && yi <= 128 {
		e := 0.0
		if yf != 0 {
			// The conversion keeps the product from fusing with the sum
			// into one FMA (TestNoFusedMultiplyAdd).
			e = float64(8*math.Abs(yf)) + 0x1p-50
		}
		z.powInt, z.lo, z.hi = int64(yi), 1-e, 1+e
	}
	return z
}

// NewScrambledZipfian builds the scrambled variant: same popularity
// profile, hot items scattered uniformly over the keyspace — YCSB's
// default request distribution.
func NewScrambledZipfian(n int64, theta float64) *Zipfian {
	z := NewZipfian(n, theta)
	z.scrambled = true
	return z
}

func zeta(n int64, theta float64) float64 {
	// Exact for small n; sampled tail extrapolation keeps construction
	// O(10^5) even for large keyspaces, with error well under sampling
	// noise for simulator purposes.
	const exact = 100000
	if n <= exact {
		sum := 0.0
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := 0.0
	for i := int64(1); i <= exact; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	// Integral approximation of the tail.
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
	return sum
}

// Next draws a key.
func (z *Zipfian) Next(rng *sim.RNG) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	var k int64
	switch {
	case uz < 1.0:
		k = 0
	case uz < z.half:
		k = 1
	default:
		// The explicit conversion keeps the compiler from fusing the
		// product and the difference into one FMA on architectures that
		// have it, so every architecture rounds as amd64 does.
		k = z.key(float64(z.eta*u) - z.eta + 1)
	}
	if k >= z.n {
		k = z.n - 1
	}
	if z.scrambled {
		k = int64(fnvHash64(uint64(k)) % uint64(z.n))
	}
	return k
}

// key returns int64(float64(z.n) * math.Pow(x, z.alpha)), the key of a
// draw past key 1.
func (z *Zipfian) key(x float64) int64 {
	if k, ok := z.bracketKey(x); ok {
		return k
	}
	return int64(float64(z.n) * math.Pow(x, z.alpha))
}

// bracketKey returns int64(float64(z.n) * math.Pow(x, z.alpha)) without
// calling Log or Exp, and ok false where it cannot tell that key.
//
// For 0 < x, pow computes x^yf as a1 = Exp(yf*Log(x)), then multiplies
// a1 by the repeated squarings of Frexp(x)'s fraction for each set bit
// of yi, from the low end, renormalising each square to [0.5, 1), and
// scales the product by the summed exponents with Ldexp. Frexp, the
// renormalisation and Ldexp scale by powers of two. For 2^-7 < x < 1
// and yi <= 128 every square and product is at least x^128 > 2^-896, a
// normal number, so round-to-nearest commutes with those scalings: the
// same chain run on x itself, unnormalised, gives pow's bits.
//
// a1 is the only part that needs Exp. There |Log(x)| < 4.86, so
// |yf*Log(x)| < 4.86|yf| and a1 lies in [lo, hi] = 1 -/+ (8|yf| +
// 2^-50), wide enough for Exp's and Log's last-ulp errors; where yf is
// 0, pow skips Exp and lo = hi = a1 = 1. Each step of the chain
// multiplies by a positive number, and so does float64(z.n)*r; those
// and the int64 truncation are monotone in a1. So when the chain run
// from lo and from hi gives one key, that key is pow's. Otherwise the
// bracket straddles a key boundary (3 of 7M draws at n = 2^22) and key
// calls math.Pow. The key is that of Go's portable pow, which is
// math.Pow everywhere but on s390x.
func (z *Zipfian) bracketKey(x float64) (k int64, ok bool) {
	if z.powInt == 0 || !(x > 0x1p-7 && x < 1) {
		return 0, false
	}
	lo, hi, p := z.lo, z.hi, x
	for i := z.powInt; ; p *= p {
		if i&1 == 1 {
			lo *= p
			hi *= p
		}
		if i >>= 1; i == 0 {
			break
		}
	}
	n := float64(z.n)
	k = int64(n * lo)
	return k, k == int64(n*hi)
}

// fnvHash64 is the FNV-1a style hash YCSB uses for scrambling.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		octet := v & 0xff
		v >>= 8
		h ^= octet
		h *= prime
	}
	return h
}

// Uniform draws uniformly from [0, n).
type Uniform struct{ n int64 }

// NewUniform builds a uniform key generator over [0, n).
func NewUniform(n int64) *Uniform {
	if n <= 0 {
		panic("workload: uniform needs positive n")
	}
	return &Uniform{n: n}
}

// Next draws a key.
func (u *Uniform) Next(rng *sim.RNG) int64 { return rng.Int63n(u.n) }
