package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). Every source of randomness in the
// simulator draws from an RNG stream derived from the trial seed, so a
// trial is exactly reproducible from its seed.
//
// RNG is not safe for concurrent use; derive per-component streams with
// Stream instead of sharing one generator.
type RNG struct {
	seed uint64 // immutable; basis for derived streams
	s    [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so that
// nearby seeds still produce well-separated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{seed: seed}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which xoshiro cannot leave.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Stream derives an independent child generator identified by id.
// Streams with distinct ids are statistically independent, and the parent
// stream is not perturbed.
func (r *RNG) Stream(id uint64) *RNG {
	return NewRNG(r.seed ^ (id+1)*0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible for simulator-scale n
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller, one branch).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// LogNormal returns exp(N(mu, sigma)). Used for device-latency jitter.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	// The explicit conversion keeps the compiler from fusing the product
	// and the sum into one FMA on architectures that have it, so every
	// architecture rounds as amd64 does.
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// ExpFloat64 returns an exponential variate with mean 1. Used for
// Poisson-process event scheduling (fault-storm arrivals).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
