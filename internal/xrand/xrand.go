// Package xrand provides deterministic, splittable pseudo-random number
// generation for the TDFM study.
//
// Every stochastic component in the repository (weight initialization,
// dataset synthesis, fault injection, batch shuffling, dropout masks)
// draws from an *RNG obtained from a single experiment seed, so that any
// experiment configuration is exactly reproducible from its seed alone.
//
// The generator wraps math/rand/v2's PCG and adds:
//
//   - Split: derive statistically independent child streams by label, so
//     that adding a consumer never perturbs the draws seen by existing
//     consumers (a common reproducibility bug in ML harnesses).
//   - Gaussian and uniform tensor-fill helpers used by layer initializers.
//   - Sampling utilities (shuffle, choice without replacement) used by the
//     fault injector and data loaders.
package xrand

import (
	"hash/fnv"
	"math/rand/v2"
)

// RNG is a deterministic random stream. The zero value is not usable; use
// New or Split to construct one.
type RNG struct {
	src *rand.Rand
}

// New returns a stream seeded with the given seed. Equal seeds yield equal
// streams.
func New(seed uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent child stream identified by label. The child
// depends only on (parent seed material, label), not on how many values the
// parent has already produced, because it draws exactly two words from the
// parent in a fixed order at the call site. Callers should therefore split
// all children up front, in a deterministic order.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	a := r.src.Uint64() ^ h.Sum64()
	b := r.src.Uint64() ^ (h.Sum64() * 0x9e3779b97f4a7c15)
	return &RNG{src: rand.New(rand.NewPCG(a, b))}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Int64 returns a non-negative random int64.
func (r *RNG) Int64() int64 { return r.src.Int64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard-normal float64.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.src.Float64())
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + float64(std*r.src.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle permutes a slice of ints in place.
func (r *RNG) Shuffle(xs []int) {
	r.src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Choice returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Choice(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Choice requires 0 <= k <= n")
	}
	perm := r.src.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// FillNormal fills dst with Gaussian samples of the given mean and std.
func (r *RNG) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = mean + float64(std*r.src.NormFloat64())
	}
}

// FillUniform fills dst with uniform samples in [lo, hi).
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = lo + float64((hi-lo)*r.src.Float64())
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }
