package eigen

import (
	"math"
	"math/rand"
)

// The dense vector kernels behind reorthogonalization and Ritz rotation.
// project and addCombination hand the basis vectors to dot4 and axpy4 four
// at a time. axpy4 streams the target once per four basis vectors; dot4
// keeps four lane sums per basis vector and streams the target once per
// four basis vectors in AVX and once per two in Go (eight lane sums fill
// the registers). They run on the caller's goroutine, so results are
// bit-identical for any worker count.
//
// dot4 and axpy4 start as the portable Go kernels; on amd64,
// kernels_amd64.go swaps in AVX kernels at init when the CPU and the OS
// support them. Both versions perform the same roundings in the same order
// and neither fuses a multiply into an add, so an amd64 build computes the
// same plan bits with and without AVX (Go 1.24 fuses no multiply-add on
// amd64 at any GOAMD64 level). That does not extend across architectures:
// on arm64, loong64, ppc64le, riscv64 and s390x the compiler fuses the
// s += x*y of dot, axpy, the SpMV row sums and the QL solve into
// multiply-adds, so plans built there can differ at roundoff level.
var (
	dot4  = dot4Go
	axpy4 = axpy4Go
)

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

// dot4Go returns ⟨v, a⟩, ⟨v, b⟩, ⟨v, c⟩ and ⟨v, d⟩, each summed in four
// lanes: lane l accumulates the products at the indices ≡ l (mod 4) below
// the last multiple of four, the lanes combine as (l0+l2) + (l1+l3), and
// the leftover products are then added in index order. That is the AVX
// kernel's order. Every product is rounded before it is added (the float64
// conversions forbid a fused multiply-add). Two basis vectors per sweep
// keep the eight lane sums in registers; four would spill them.
func dot4Go(v, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	sa, sb = dot2Go(v, a, b)
	sc, sd = dot2Go(v, c, d)
	return sa, sb, sc, sd
}

// dot2Go returns ⟨v, a⟩ and ⟨v, b⟩ in dot4Go's lane order.
func dot2Go(v, a, b []float64) (sa, sb float64) {
	a, b = a[:len(v)], b[:len(v)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	k := 0
	for ; k+4 <= len(v); k += 4 {
		a0 += float64(v[k] * a[k])
		a1 += float64(v[k+1] * a[k+1])
		a2 += float64(v[k+2] * a[k+2])
		a3 += float64(v[k+3] * a[k+3])
		b0 += float64(v[k] * b[k])
		b1 += float64(v[k+1] * b[k+1])
		b2 += float64(v[k+2] * b[k+2])
		b3 += float64(v[k+3] * b[k+3])
	}
	sa, sb = (a0+a2)+(a1+a3), (b0+b2)+(b1+b3)
	for ; k < len(v); k++ {
		sa += float64(v[k] * a[k])
		sb += float64(v[k] * b[k])
	}
	return sa, sb
}

// axpy4Go adds ca·a + cb·b + cc·c + cd·d to y in one sweep over y. Each
// element's terms are summed left to right, with every product rounded
// first, as the AVX kernel sums them.
func axpy4Go(y, a, b, c, d []float64, ca, cb, cc, cd float64) {
	a, b, c, d = a[:len(y)], b[:len(y)], c[:len(y)], d[:len(y)]
	for k := range y {
		t := float64(ca*a[k]) + float64(cb*b[k])
		t += float64(cc * c[k])
		t += float64(cd * d[k])
		y[k] += t
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
