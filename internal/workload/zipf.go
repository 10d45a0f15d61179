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
		k = int64(float64(z.n) * math.Pow(float64(z.eta*u)-z.eta+1, z.alpha))
	}
	if k >= z.n {
		k = z.n - 1
	}
	if z.scrambled {
		k = int64(fnvHash64(uint64(k)) % uint64(z.n))
	}
	return k
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
