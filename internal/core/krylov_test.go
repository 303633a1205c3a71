package core

import (
	"context"
	"testing"

	"bootes/internal/eigen"
	"bootes/internal/workloads"
)

// TestEigenOptionsMatvecCap: the default Krylov shape of each candidate k
// may spend at least the matvecs of 12 restarts on a max(2k+16, 48) basis,
// and never fewer than k = 8's 432 (k = 16's 12 restarts give only 336), and
// at most one restart cycle more, whatever basis it runs on.
func TestEigenOptionsMatvecCap(t *testing.T) {
	for _, tc := range []struct{ k, basis, wideCap int }{
		{2, 48, 576}, {4, 32, 528}, {8, 32, 432}, {16, 48, 432}, {32, 80, 560},
	} {
		eo := SpectralOptions{Seed: 1}.eigenOptions(tc.k)
		// A solve that never converges stops after a full first basis and
		// MaxRestarts cycles of MaxBasis − RitzBlock(k) new vectors.
		cycle := eo.MaxBasis - eigen.RitzBlock(tc.k)
		got := eo.MaxBasis + eo.MaxRestarts*cycle
		t.Logf("k=%d: basis %d, %d restarts, cap %d matvecs", tc.k, eo.MaxBasis, eo.MaxRestarts, got)
		if eo.MaxBasis != tc.basis {
			t.Errorf("k=%d: basis %d, want %d", tc.k, eo.MaxBasis, tc.basis)
		}
		if got < tc.wideCap || got > tc.wideCap+cycle {
			t.Errorf("k=%d: cap %d matvecs, want within one %d-vector cycle above %d",
				tc.k, got, cycle, tc.wideCap)
		}
	}
}

// TestEigenOptionsKeepCallerShape: a caller that sets the basis or the
// restart count gets the wide shape's value for the other, so the
// degradation ladder's small-basis rung (basis 20) and the corpus labeller
// (8 restarts) keep their solve budgets.
func TestEigenOptionsKeepCallerShape(t *testing.T) {
	eo := SpectralOptions{Eigen: eigen.Options{MaxBasis: 20}}.eigenOptions(8)
	if eo.MaxBasis != 20 || eo.MaxRestarts != 12 {
		t.Errorf("MaxBasis 20 set: basis %d, %d restarts, want 20 and 12", eo.MaxBasis, eo.MaxRestarts)
	}
	eo = SpectralOptions{Eigen: eigen.Options{MaxRestarts: 8}}.eigenOptions(8)
	if eo.MaxBasis != 48 || eo.MaxRestarts != 8 {
		t.Errorf("MaxRestarts 8 set: basis %d, %d restarts, want 48 and 8", eo.MaxBasis, eo.MaxRestarts)
	}
}

// coldSparseOps builds the similarity operators the planner solves on for
// perSlot matrices of every slot of e2ebench's cold-sparse cycle: the
// implicit tier at these sizes.
func coldSparseOps(tb testing.TB, perSlot int) []eigen.Operator {
	tb.Helper()
	var ops []eigen.Operator
	for _, a := range workloads.Corpus(workloads.ColdSparse, 1, perSlot) {
		op, _, mode, err := buildSimilarityOperator(context.Background(), a, SpectralOptions{K: 8, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if mode != SimImplicit {
			tb.Fatalf("%d-row matrix resolved to the %s tier, want implicit", a.Rows, mode)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestColdSparseSolvesConverge: at every candidate k, every solve over 40
// cold-sparse matrices meets the default tolerance within the default
// Krylov shape, so a narrower basis or a tighter matvec cap does not trade
// converged plans for speed.
func TestColdSparseSolvesConverge(t *testing.T) {
	ops := coldSparseOps(t, 4)
	for _, k := range CandidateKs {
		eo := SpectralOptions{K: k, Seed: 1}.eigenOptions(k)
		for i, op := range ops {
			res, err := eigen.LargestContext(context.Background(), op, eo)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Errorf("k=%d, matrix %d (%d rows): unconverged after %d matvecs", k, i, op.Dim(), res.MatVecs)
			}
		}
	}
}

// BenchmarkLanczosColdSparse times the k = 8 eigensolves of one cold-sparse
// cycle (ten matrices of 780–2 080 rows) on the operators and options the
// planner uses. One op solves all ten.
func BenchmarkLanczosColdSparse(b *testing.B) {
	ops := coldSparseOps(b, 1)
	eo := SpectralOptions{K: 8, Seed: 1}.eigenOptions(8)
	b.ReportAllocs()
	b.ResetTimer()
	matvecs := 0
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			res, err := eigen.LargestContext(context.Background(), op, eo)
			if err != nil {
				b.Fatal(err)
			}
			matvecs += res.MatVecs
		}
	}
	b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
}
