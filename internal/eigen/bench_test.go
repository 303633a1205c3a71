package eigen

import (
	"math/rand"
	"testing"
)

var benchSink float64

// BenchmarkDenseSymEigen times one dense symmetric eigensolve of the size
// the Lanczos restart loop solves (an 80×80 projected matrix): Householder
// + implicit QL against the Jacobi reference it replaced.
func BenchmarkDenseSymEigen(b *testing.B) {
	const n = 80
	a := denseFixtures(rand.New(rand.NewSource(1)), n)["random"]
	b.Run("QL", func(b *testing.B) {
		work := make([]float64, n*n)
		d, e := make([]float64, n), make([]float64, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, a)
			if err := symEigen(work, n, d, e); err != nil {
				b.Fatal(err)
			}
			benchSink = d[n-1]
		}
	})
	b.Run("Jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eig, _, err := JacobiEigen(a, n)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = eig[n-1]
		}
	})
}

// BenchmarkLargestK32 times a K=32 solve on the normalized similarity of a
// 2048-row scrambled-block matrix with the options the spectral pipeline
// passes (MaxBasis 2K+16, Tol 1e-5, 12 restarts).
func BenchmarkLargestK32(b *testing.B) {
	op := scrambledBlockOp(2048, 0.004, 1)
	opts := Options{K: 32, MaxBasis: 80, Tol: 1e-5, MaxRestarts: 12, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Largest(op, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Values[0]
		b.ReportMetric(float64(res.MatVecs), "matvecs/op")
	}
}
