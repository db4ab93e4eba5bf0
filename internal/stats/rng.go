// Package stats provides the deterministic statistics substrate used
// throughout the Zerber+R reproduction: seeded random number
// generation, Zipf and lognormal samplers, descriptive statistics,
// histograms, empirical distribution functions, uniformity measures
// and least-squares fits.
//
// Everything in this package is deterministic given a seed, which is
// what makes the experiment harness reproducible run to run.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic random number generator. It wraps math/rand
// with a fixed source and adds the samplers the corpus and workload
// generators need. RNG is not safe for concurrent use; derive
// independent generators with Split for parallel work.
type RNG struct {
	r *rand.Rand
	// seed retains the construction seed so that Split can derive
	// decorrelated child seeds deterministically.
	seed uint64
}

// NewRNG returns a generator seeded with seed. Two generators built
// from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(int64(splitmix64(&seed)))), seed: seed}
}

// Split derives an independent child generator identified by label.
// The same (parent seed, label) pair always yields the same child
// stream, so subsystems can be re-run in isolation.
func (g *RNG) Split(label string) *RNG {
	s := g.seed
	for _, b := range []byte(label) {
		s = splitmix64(&s) ^ uint64(b)
	}
	s = splitmix64(&s)
	return NewRNG(s)
}

// splitmix64 advances *s and returns a well-mixed 64-bit value.
// It is the standard SplitMix64 finalizer (Steele et al.).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// LogNormal returns a lognormal variate with the given log-scale
// parameters: exp(mu + sigma*Z).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Shuffle permutes the n elements addressed by swap in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Unlike math/rand.Zipf it supports any exponent s > 0
// (including s <= 1) over a finite support, which is what a bounded
// vocabulary needs. Sampling is O(log n) via an inverse-CDF table.
type Zipf struct {
	cdf []float64
	g   *RNG
}

// NewZipf builds a finite Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(g *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	if s < 0 {
		panic("stats: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, g: g}
}

// Next returns the next sampled rank in [0, n).
func (z *Zipf) Next() int {
	u := z.g.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }
