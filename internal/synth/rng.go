// Package synth generates synthetic branch traces whose statistical
// structure matches the workloads the paper evaluated.
//
// The paper used IBS-Ultrix traces captured with a hardware monitor on a
// MIPS R2000 workstation and SPEC CINT95 traces captured with DEC's ATOM
// on a 21064 — artifacts that are unobtainable today. What the paper's
// experiments actually consume is the *statistical shape* of those branch
// streams: the number of static branch sites (its Table 2), heavy-tailed
// site frequencies, the per-site bias distribution (about half of dynamic
// branches come from statics biased >90% one way, per [Chang94]), loop
// structure, and correlation with recent global outcomes. This package
// reproduces exactly those properties, per benchmark, from documented
// profile parameters, deterministically from a seed. DESIGN.md records
// the substitution.
package synth

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**), seeded via splitmix64. It exists so traces are
// bit-reproducible across Go releases regardless of math/rand changes.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A state of all zeros would be absorbing; splitmix64 cannot produce
	// four zero outputs from any seed, so no further guard is needed.
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("synth: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
