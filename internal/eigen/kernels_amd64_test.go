package eigen

import (
	"math"
	"math/rand"
	"testing"

	"bootes/internal/workloads"
)

// TestAVXKernelsMatchGo holds the AVX kernels to the Go kernels bit for
// bit, over every length 0–67 (each main-loop count with each tail length)
// and slice starts off the 32-byte grid, so a plan has the same bits
// whichever kernels a host runs.
func TestAVXKernelsMatchGo(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS lacks AVX: this host runs the Go kernels, so there is nothing to compare")
	}
	rng := rand.New(rand.NewSource(1))
	const maxLen, maxOff = 67, 3
	// Five vectors, each laid out with room for every offset.
	vecs := make([][]float64, 5)
	for i := range vecs {
		vecs[i] = make([]float64, maxLen+maxOff)
		for k := range vecs[i] {
			vecs[i][k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	coef := [4]float64{rng.NormFloat64(), -rng.NormFloat64(), 3e-7, -1234.5}
	for n := 0; n <= maxLen; n++ {
		for off := 0; off <= maxOff; off++ {
			s := make([][]float64, 5)
			for i := range s {
				// Different starts per vector, so no two share alignment.
				o := (off + i) % (maxOff + 1)
				s[i] = vecs[i][o : o+n]
			}
			ga, gb, gc, gd := dot4Go(s[0], s[1], s[2], s[3], s[4])
			aa, ab, ac, ad := dot4AVX(s[0], s[1], s[2], s[3], s[4])
			for j, pair := range [4][2]float64{{ga, aa}, {gb, ab}, {gc, ac}, {gd, ad}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("dot4 n=%d off=%d: lane %d Go %v (%#x), AVX %v (%#x)",
						n, off, j, pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
				}
			}

			yGo := append([]float64(nil), s[0]...)
			yAVX := make([]float64, n+maxOff)[off : off+n]
			copy(yAVX, s[0])
			axpy4Go(yGo, s[1], s[2], s[3], s[4], coef[0], coef[1], coef[2], coef[3])
			axpy4AVX(yAVX, s[1], s[2], s[3], s[4], coef[0], coef[1], coef[2], coef[3])
			for k := range yGo {
				if math.Float64bits(yGo[k]) != math.Float64bits(yAVX[k]) {
					t.Fatalf("axpy4 n=%d off=%d: y[%d] Go %v, AVX %v", n, off, k, yGo[k], yAVX[k])
				}
			}
		}
	}
}

// withGoKernels runs f with the Go kernels in place of whichever kernels
// init selected, as a host without AVX runs them.
func withGoKernels(f func()) {
	d, a := dot4, axpy4
	dot4, axpy4 = dot4Go, axpy4Go
	defer func() { dot4, axpy4 = d, a }()
	f()
}

// coldSparseSolves are k = 8 solves in the planner's Krylov shape (a
// 32-vector basis restarted up to 25 times) on the implicit similarity
// operators of one matrix per slot of e2ebench's cold-sparse cycle.
func coldSparseSolves() ([]Operator, Options) {
	var ops []Operator
	for _, a := range workloads.Corpus(workloads.ColdSparse, 1, 1) {
		ops = append(ops, NewImplicitSimilarity(a))
	}
	return ops, Options{K: 8, MaxBasis: 32, MaxRestarts: 25, Tol: 1e-5, Seed: 1}
}

// TestGoKernelsSolveLikeAVX: whole solves, every Gram–Schmidt pass and Ritz
// rotation of them, return the same bits on the Go kernels as on the AVX
// ones, so a host without AVX computes the same plans.
func TestGoKernelsSolveLikeAVX(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS lacks AVX: this host runs the Go kernels, so there is nothing to compare")
	}
	ops, opts := coldSparseSolves()
	for i, op := range ops {
		want, err := Largest(op, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got *Result
		withGoKernels(func() { got, err = Largest(op, opts) })
		if err != nil {
			t.Fatal(err)
		}
		if got.MatVecs != want.MatVecs || got.Converged != want.Converged {
			t.Fatalf("matrix %d: Go kernels %d matvecs (converged %v), AVX %d (%v)",
				i, got.MatVecs, got.Converged, want.MatVecs, want.Converged)
		}
		for j := range want.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
				t.Fatalf("matrix %d: eigenvalue %d is %v on Go kernels, %v on AVX", i, j, got.Values[j], want.Values[j])
			}
			for r := range want.Vectors[j] {
				if math.Float64bits(got.Vectors[j][r]) != math.Float64bits(want.Vectors[j][r]) {
					t.Fatalf("matrix %d: eigenvector %d differs at row %d", i, j, r)
				}
			}
		}
	}
}

// BenchmarkColdSparseSolveKernels times the ten solves of
// TestGoKernelsSolveLikeAVX on the Go kernels and, where the host has AVX,
// the assembly ones. Nothing else in a plan runs these kernels, so the
// difference is what ten cold-sparse plans cost more on a host without AVX.
func BenchmarkColdSparseSolveKernels(b *testing.B) {
	ops, opts := coldSparseSolves()
	solve := func(b *testing.B) {
		matvecs := 0
		for i := 0; i < b.N; i++ {
			for _, op := range ops {
				res, err := Largest(op, opts)
				if err != nil {
					b.Fatal(err)
				}
				matvecs += res.MatVecs
			}
		}
		b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
	}
	b.Run("go", func(b *testing.B) { withGoKernels(func() { solve(b) }) })
	if hasAVX() {
		b.Run("avx", solve)
	}
}

// BenchmarkVectorKernels times one dot4 and one axpy4 over 1 500-element
// vectors, about a cold-sparse operator's dimension, on the Go kernels and,
// where the host has AVX, the assembly ones.
func BenchmarkVectorKernels(b *testing.B) {
	const n = 1500
	rng := rand.New(rand.NewSource(1))
	v := make([][]float64, 5)
	for i := range v {
		v[i] = make([]float64, n)
		for k := range v[i] {
			v[i][k] = rng.NormFloat64()
		}
	}
	type kernels struct {
		name  string
		dot4  func(v, a, b, c, d []float64) (float64, float64, float64, float64)
		axpy4 func(y, a, b, c, d []float64, ca, cb, cc, cd float64)
	}
	sets := []kernels{{"go", dot4Go, axpy4Go}}
	if hasAVX() {
		sets = append(sets, kernels{"avx", dot4AVX, axpy4AVX})
	}
	for _, ks := range sets {
		b.Run("dot4/"+ks.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, _, _, _ := ks.dot4(v[0], v[1], v[2], v[3], v[4])
				benchSink += s
			}
		})
		b.Run("axpy4/"+ks.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Coefficients that cancel keep y bounded over any b.N.
				ks.axpy4(v[0], v[1], v[2], v[3], v[4], 1e-9, -1e-9, 1e-9, -1e-9)
			}
		})
	}
}
