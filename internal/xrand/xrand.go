// Package xrand provides the deterministic pseudo-random number streams
// used by the simulator.
//
// Every stochastic component of a simulation (each traffic source, each
// arbiter that breaks ties randomly, ...) owns its own Rand stream, derived
// from the run's master seed with SplitMix64. This makes simulations fully
// reproducible from (configuration, seed) and keeps streams statistically
// independent, which is essential when comparing switch architectures: the
// same seed must generate the exact same offered traffic for all of them.
//
// The core generator is xoshiro256++, a small, fast generator with a 2^256-1
// period that comfortably exceeds the needs of a discrete-event simulation.
// The package also implements the distributions required by the paper's
// traffic model: uniform, exponential, normal, and bounded Pareto (the heavy
// tail behind "self-similar internet-like traffic", per Jain's methodology
// referenced by the paper).
package xrand

import "math"

// Rand is a deterministic pseudo-random stream. It is not safe for
// concurrent use; each concurrent component must own its own stream.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro state, per the generator authors'
// recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	return r
}

// Split derives a new independent stream from r, keyed by id. Use it to
// give each component (host, flow, arbiter) its own stream from a master
// seed without correlations between them.
func (r *Rand) Split(id uint64) *Rand {
	return New(r.Uint64() ^ (id+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256++).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible for simulation n
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformInt returns a uniform int64 in [lo, hi] inclusive.
func (r *Rand) UniformInt(lo, hi int64) int64 {
	if hi < lo {
		panic("xrand: UniformInt with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard u == 0: log(0) is -Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation (Box–Muller; one value per call, the pair's second
// element is discarded to keep the stream consumption simple and fixed).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pareto returns a Pareto-distributed float64 with shape alpha and scale
// xm (the minimum value). The mean is alpha*xm/(alpha-1) for alpha > 1.
func (r *Rand) Pareto(alpha, xm float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto is a Pareto distribution with shape alpha truncated to
// [lo, hi], sampled by inverse CDF (not by rejection, so the stream
// consumption is constant). The paper's self-similar traffic draws frame
// sizes from it. Build one per source with NewBoundedPareto: it holds the
// bounds' constant powers, so a draw costs one math.Pow.
type BoundedPareto struct {
	alpha, lo, hi float64
	la, ha        float64 // lo^alpha and hi^alpha
}

// NewBoundedPareto returns the Pareto distribution with shape alpha
// truncated to [lo, hi]. With lo >= hi every draw is lo.
func NewBoundedPareto(alpha, lo, hi float64) BoundedPareto {
	return BoundedPareto{
		alpha: alpha, lo: lo, hi: hi,
		la: math.Pow(lo, alpha), ha: math.Pow(hi, alpha),
	}
}

// Draw returns one sample, consuming one Float64 from r (none when the
// support is degenerate).
func (d *BoundedPareto) Draw(r *Rand) float64 {
	if d.lo >= d.hi {
		return d.lo
	}
	u := r.Float64()
	la, ha := d.la, d.ha
	// Inverse CDF of the bounded Pareto distribution.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/d.alpha)
	if x < d.lo {
		x = d.lo
	}
	if x > d.hi {
		x = d.hi
	}
	return x
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
