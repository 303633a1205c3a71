package eigen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bootes/internal/sparse"
)

// randomOrthogonal returns an n×n orthogonal matrix (row-major) from
// Gram–Schmidt on Gaussian rows.
func randomOrthogonal(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n*n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	rows := rowViews(q, n, n)
	orthonormalizeBlock(rows, make([]float64, n))
	return q
}

// fromSpectrum returns Qᵀ·diag(lambda)·Q for the rows of an orthogonal Q.
func fromSpectrum(q, lambda []float64, n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q[k*n+i] * lambda[k] * q[k*n+j]
			}
			a[i*n+j], a[j*n+i] = s, s
		}
	}
	return a
}

// denseFixtures returns the property-test matrices of order n: a random
// symmetric matrix, a rank-deficient Gram matrix and one whose spectrum
// has only three distinct, heavily repeated eigenvalues.
func denseFixtures(rng *rand.Rand, n int) map[string][]float64 {
	random := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() / math.Sqrt(float64(n))
			random[i*n+j], random[j*n+i] = v, v
		}
	}

	r := max(1, n/3)
	b := make([]float64, n*r)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := dot(b[i*r:(i+1)*r], b[j*r:(j+1)*r]) / float64(n)
			gram[i*n+j], gram[j*n+i] = s, s
		}
	}

	lambda := make([]float64, n)
	for i := range lambda {
		lambda[i] = []float64{-1, 0.5, 2}[i%3]
	}
	repeated := fromSpectrum(randomOrthogonal(rng, n), lambda, n)

	return map[string][]float64{"random": random, "rank-deficient": gram, "repeated": repeated}
}

// checkDenseEigen verifies symEigen on a against the Jacobi reference:
// eigenvalues within 1e-10·‖A‖, ‖AV−VΛ‖_F ≤ 1e-10 and ‖VᵀV−I‖_F ≤ 1e-10.
func checkDenseEigen(t *testing.T, name string, a []float64, n int) {
	t.Helper()
	want, _, err := JacobiEigen(a, n)
	if err != nil {
		t.Fatalf("%s: Jacobi reference: %v", name, err)
	}
	v := append([]float64(nil), a...)
	got := make([]float64, n)
	if err := symEigen(v, n, got, make([]float64, n)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	anorm := math.Sqrt(dot(a, a)) // ‖A‖_F
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10*anorm {
			t.Errorf("%s: eigenvalue %d = %v, Jacobi %v", name, i, got[i], want[i])
		}
	}
	// Row i of v is the eigenvector of got[i].
	resid, orth := 0.0, 0.0
	for i := 0; i < n; i++ {
		vi := v[i*n : (i+1)*n]
		for row := 0; row < n; row++ {
			r := dot(a[row*n:(row+1)*n], vi) - got[i]*vi[row]
			resid += r * r
		}
		for j := 0; j < n; j++ {
			g := dot(vi, v[j*n:(j+1)*n])
			if i == j {
				g--
			}
			orth += g * g
		}
	}
	if r := math.Sqrt(resid); r > 1e-10 {
		t.Errorf("%s: ‖AV−VΛ‖_F = %g", name, r)
	}
	if o := math.Sqrt(orth); o > 1e-10 {
		t.Errorf("%s: ‖VᵀV−I‖_F = %g", name, o)
	}
}

func TestSymEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 5, 48, 81, 137} {
		for name, a := range denseFixtures(rng, n) {
			checkDenseEigen(t, fmt.Sprintf("n=%d %s", n, name), a, n)
		}
	}
}

func TestSymEigenRankOneAllOnes(t *testing.T) {
	// The normalized similarity of 64 rows sharing one support: J/64, one
	// eigenvalue 1 and 63 zeros. The zero block tridiagonalizes to zero
	// diagonals with round-off couplings, which a deflation test local to
	// the diagonal never splits.
	const n = 64
	a := make([]float64, n*n)
	for i := range a {
		a[i] = 1.0 / n
	}
	checkDenseEigen(t, "all-ones/64", a, n)
	coo := sparse.NewCOO(n, n, false)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coo.Add(i, j, 1.0/n)
		}
	}
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	res, err := denseLargest(context.Background(), CSROp{M: m}, 2)
	if err != nil {
		t.Fatalf("denseLargest: %v", err)
	}
	if math.Abs(res.Values[0]-1) > 1e-12 || math.Abs(res.Values[1]) > 1e-12 {
		t.Errorf("top eigenvalues %v, want [1 0]", res.Values)
	}
}

func TestSymTridEigenZeroDiagonalDenormalCouplings(t *testing.T) {
	cases := []struct {
		name string
		d, e []float64
	}{
		// A zero block with denormal couplings beside a normal-scale entry,
		// the shape Householder leaves for a rank-1 matrix: a test local to
		// the diagonal compares the couplings against ε·0 and never splits.
		{"zero-diag", []float64{0, 0, 0, 0, 1}, []float64{-2e-323, -2.5e-323, -3e-323, 0.1}},
		// Every entry zero or denormal: ε·‖T‖ itself underflows to zero.
		{"all-denormal", []float64{0, 0, 0, 0, 0, 0}, []float64{1e-310, 2e-315, 4e-320, 3e-323, 1e-312}},
	}
	for _, tc := range cases {
		eig, z, err := SymTridEigen(tc.d, tc.e, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := len(tc.d)
		for i := 1; i < n; i++ {
			if eig[i] < eig[i-1] {
				t.Errorf("%s: eigenvalues not ascending: %v", tc.name, eig)
			}
		}
		// T·z_i = λ_i·z_i and the eigenvectors stay orthonormal.
		for i := 0; i < n; i++ {
			nrm := 0.0
			for row := 0; row < n; row++ {
				tv := tc.d[row] * z[row*n+i]
				if row > 0 {
					tv += tc.e[row-1] * z[(row-1)*n+i]
				}
				if row < n-1 {
					tv += tc.e[row] * z[(row+1)*n+i]
				}
				if math.Abs(tv-eig[i]*z[row*n+i]) > 1e-15 {
					t.Errorf("%s: T·z ≠ λ·z at pair %d row %d", tc.name, i, row)
				}
				nrm += z[row*n+i] * z[row*n+i]
			}
			if math.Abs(nrm-1) > 1e-12 {
				t.Errorf("%s: eigenvector %d has norm² %v", tc.name, i, nrm)
			}
		}
	}
}
