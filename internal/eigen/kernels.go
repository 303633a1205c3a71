package eigen

import (
	"math"
	"math/rand"
)

// The dense vector kernels behind reorthogonalization and Ritz rotation.
// project and addCombination handle four basis vectors per sweep over the
// target vector, with an independent accumulator per basis vector, so the
// target is streamed once per four basis vectors instead of once per
// vector. Everything is sequential: results are bit-identical for any
// worker count.

// project sets c[i] = ⟨basis[i], v⟩ for every basis vector.
func project(c []float64, basis [][]float64, v []float64) {
	i := 0
	for ; i+4 <= len(basis); i += 4 {
		c[i], c[i+1], c[i+2], c[i+3] = dot4(v, basis[i], basis[i+1], basis[i+2], basis[i+3])
	}
	for ; i < len(basis); i++ {
		c[i] = dot(v, basis[i])
	}
}

// addCombination adds alpha·Σ c[i]·basis[i] to v.
func addCombination(v []float64, basis [][]float64, c []float64, alpha float64) {
	i := 0
	for ; i+4 <= len(basis); i += 4 {
		axpy4(v, basis[i], basis[i+1], basis[i+2], basis[i+3],
			alpha*c[i], alpha*c[i+1], alpha*c[i+2], alpha*c[i+3])
	}
	for ; i < len(basis); i++ {
		axpy(v, basis[i], alpha*c[i])
	}
}

// combine sets dst = Σ c[i]·basis[i] (a Ritz rotation).
func combine(dst []float64, basis [][]float64, c []float64) {
	for i := range dst {
		dst[i] = 0
	}
	addCombination(dst, basis, c, 1)
}

// gramSchmidt runs one classical Gram–Schmidt pass: it projects v onto the
// orthonormal basis, leaving the coefficients in c[:len(basis)], then
// subtracts that component from v.
func gramSchmidt(v []float64, basis [][]float64, c []float64) {
	c = c[:len(basis)]
	project(c, basis, v)
	addCombination(v, basis, c, -1)
}

// orthogonalize removes v's component along the orthonormal basis with two
// classical Gram–Schmidt passes (CGS2); the second pass removes what
// round-off left behind by the first. c is scratch of length ≥ len(basis).
func orthogonalize(v []float64, basis [][]float64, c []float64) {
	gramSchmidt(v, basis, c)
	gramSchmidt(v, basis, c)
}

// dot4 returns ⟨v, a⟩, ⟨v, b⟩, ⟨v, c⟩ and ⟨v, d⟩ in one sweep over v.
func dot4(v, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	a, b, c, d = a[:len(v)], b[:len(v)], c[:len(v)], d[:len(v)]
	for k, x := range v {
		sa += x * a[k]
		sb += x * b[k]
		sc += x * c[k]
		sd += x * d[k]
	}
	return sa, sb, sc, sd
}

// axpy4 adds ca·a + cb·b + cc·c + cd·d to y in one sweep over y.
func axpy4(y, a, b, c, d []float64, ca, cb, cc, cd float64) {
	a, b, c, d = a[:len(y)], b[:len(y)], c[:len(y)], d[:len(y)]
	for k := range y {
		y[k] += ca*a[k] + cb*b[k] + cc*c[k] + cd*d[k]
	}
}

func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func axpy(y, x []float64, alpha float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// fillRandomUnit overwrites v with a uniformly random unit direction.
func fillRandomUnit(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	scale(v, 1/norm(v))
}
