// Package eigen provides the sparse symmetric eigensolver Bootes' spectral
// clustering needs: a thick-restart Lanczos iteration with full (CGS2)
// reorthogonalization over a linear operator, and Householder
// tridiagonalization + implicit QL for the dense and projected problems. A
// dense Jacobi solver serves as the reference in tests.
//
// Spectral clustering needs the eigenvectors of the normalized Laplacian
// L = I − D^{-1/2} S D^{-1/2} associated with the k smallest eigenvalues.
// Equivalently these are the eigenvectors of the normalized similarity
// M = D^{-1/2} S D^{-1/2} with the k largest eigenvalues, which is the
// well-conditioned form Lanczos converges to fastest; the package works with
// M and reports Laplacian eigenvalues as 1−θ.
package eigen

import (
	"errors"
	"fmt"

	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// scaleGrain is the fixed chunk size of the parallel element-wise scaling
// inside the operators. Chunks write disjoint regions, so results are
// bit-identical for any worker count.
const scaleGrain = 2048

// scaleFor runs an operator's element-wise scaling over [0, n): in
// scaleGrain chunks, or below sparse.SpMVInlineRows elements as one chunk on
// the caller's goroutine, where the operator's SpMV runs too.
func scaleFor(n int, body func(lo, hi int)) {
	grain := scaleGrain
	if n < sparse.SpMVInlineRows {
		grain = n
	}
	parallel.For(n, grain, body)
}

// ErrOperatorDim reports an operator applied to vectors of the wrong length.
// Operators return it instead of panicking so a malformed operator can never
// kill a serving process.
var ErrOperatorDim = errors.New("eigen: operator dimension mismatch")

// mulInto sets dst[i] = x[i]·s[i] over parallel chunks.
func mulInto(dst, x, s []float64) {
	scaleFor(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = x[i] * s[i]
		}
	})
}

// mulInPlace sets y[i] *= s[i] over parallel chunks.
func mulInPlace(y, s []float64) {
	scaleFor(len(y), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] *= s[i]
		}
	})
}

// checkDims validates that x and y both have length n.
func checkDims(n int, x, y []float64) error {
	if len(x) != n || len(y) != n {
		return fmt.Errorf("%w: dim %d, len(x)=%d len(y)=%d", ErrOperatorDim, n, len(x), len(y))
	}
	return nil
}

// Operator is a symmetric linear operator on ℝⁿ.
type Operator interface {
	// Dim returns n.
	Dim() int
	// Apply computes y = Op·x. x and y have length Dim and do not alias.
	// It returns an error (never panics) on malformed input.
	Apply(x, y []float64) error
}

// CSROp adapts a symmetric sparse matrix to Operator. The matrix is not
// checked for symmetry; Lanczos assumes it.
type CSROp struct{ M *sparse.CSR }

// Dim returns the matrix order.
func (o CSROp) Dim() int { return o.M.Rows }

// Apply computes y = M·x.
func (o CSROp) Apply(x, y []float64) error {
	if err := sparse.SpMV(o.M, x, y); err != nil {
		return fmt.Errorf("%w: CSROp: %v", ErrOperatorDim, err)
	}
	return nil
}

// NormalizedSimilarity is the operator M = D^{-1/2}·S·D^{-1/2} for an
// explicit similarity matrix S (paper Algorithm 4 keeps S in CSR form).
type NormalizedSimilarity struct {
	S       *sparse.CSR
	InvSqrt []float64 // 1/sqrt(degree); 0 for isolated rows
	tmp     []float64
}

// NewNormalizedSimilarity builds the normalized operator from an explicit
// similarity matrix. Isolated rows (zero degree) get InvSqrt 0, which leaves
// them as fixed points of the operator — the standard convention. The degree
// sums are row-parallel over disjoint chunks (each row's sum is accumulated
// in row order within its chunk), so the operator is bit-identical for any
// worker count.
func NewNormalizedSimilarity(s *sparse.CSR) *NormalizedSimilarity {
	n := s.Rows
	inv := make([]float64, n)
	parallel.For(n, scaleGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum := 0.0
			vals := s.RowVals(i)
			if vals == nil {
				sum = float64(s.RowNNZ(i))
			} else {
				for _, v := range vals {
					sum += v
				}
			}
			if sum > 0 {
				inv[i] = 1 / sqrt(sum)
			}
		}
	})
	return &NormalizedSimilarity{S: s, InvSqrt: inv, tmp: make([]float64, n)}
}

// Dim returns the operator dimension.
func (o *NormalizedSimilarity) Dim() int { return o.S.Rows }

// Apply computes y = D^{-1/2} S D^{-1/2} x. The scaling and the SpMV inside
// are row-parallel from 4 096 rows up. In k = 8 solves over 40 matrices of
// the cold-sparse benchmark cycle on 2 vCPUs, with S formed by the exact
// kernel, about half of Lanczos wall time was spent here (52%; 44% for
// ImplicitSimilarity). The rest is the projected solve and the
// reorthogonalization and Ritz rotation, which run on AVX vector kernels
// where the host has them.
func (o *NormalizedSimilarity) Apply(x, y []float64) error {
	if err := checkDims(o.S.Rows, x, y); err != nil {
		return err
	}
	if o.S.Cols != o.S.Rows {
		return fmt.Errorf("%w: similarity matrix %dx%d is not square", ErrOperatorDim, o.S.Rows, o.S.Cols)
	}
	mulInto(o.tmp, x, o.InvSqrt)
	if err := sparse.SpMV(o.S, o.tmp, y); err != nil {
		return fmt.Errorf("%w: NormalizedSimilarity: %v", ErrOperatorDim, err)
	}
	mulInPlace(y, o.InvSqrt)
	return nil
}

// ImplicitSimilarity applies M = D^{-1/2}·(Ā·Āᵀ)·D^{-1/2} without forming
// S = Ā·Āᵀ explicitly, using two pattern SpMVs (y = Ā(Āᵀ·x)). Each matvec
// thus makes two pattern passes over Ā, 2·nnz(Ā) entries in all, where the
// explicit operator makes one valued pass over S, which holds up to
// Σ_c d_c² entries (d_c the column degrees) and must be built first. S is usually
// far denser than Ā, so the implicit form is cheaper in time as well as in
// peak memory, and the planner applies it by default outside its
// approximate row band.
type ImplicitSimilarity struct {
	A, At   *sparse.CSR
	InvSqrt []float64
	tmpN    []float64 // length A.Rows
	tmpK    []float64 // length A.Cols
}

// NewImplicitSimilarity builds the implicit operator from the pattern of A.
// Degrees are computed without forming S: deg(i) = Σ_{c∈row i} colCount(c).
func NewImplicitSimilarity(a *sparse.CSR) *ImplicitSimilarity {
	return NewImplicitSimilarityCapped(a, 0)
}

// NewImplicitSimilarityCapped is NewImplicitSimilarity with hub-column
// exclusion: columns of degree > maxColDegree are removed from the pattern
// before the operator is formed, mirroring sparse.SimilarityCapped.
// maxColDegree ≤ 0 keeps every column.
func NewImplicitSimilarityCapped(a *sparse.CSR, maxColDegree int) *ImplicitSimilarity {
	return NewImplicitSimilarityCappedWithCounts(a, maxColDegree, nil)
}

// NewImplicitSimilarityCappedWithCounts is NewImplicitSimilarityCapped for
// callers that already hold ColCounts(a), sparing the hub-dropping step a
// redundant count walk; nil colCounts are computed on demand.
func NewImplicitSimilarityCappedWithCounts(a *sparse.CSR, maxColDegree int, colCounts []int) *ImplicitSimilarity {
	ap := a.Pattern()
	if maxColDegree > 0 {
		if colCounts == nil {
			colCounts = sparse.ColCounts(ap)
		}
		ap = sparse.DropHubColumnsWithCounts(ap, maxColDegree, colCounts)
	}
	at := sparse.Transpose(ap)
	colCount := make([]float64, a.Cols)
	for _, c := range ap.Col {
		colCount[c]++
	}
	inv := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		deg := 0.0
		for _, c := range ap.Row(i) {
			deg += colCount[c]
		}
		if deg > 0 {
			inv[i] = 1 / sqrt(deg)
		}
	}
	return &ImplicitSimilarity{
		A: ap, At: at, InvSqrt: inv,
		tmpN: make([]float64, a.Rows),
		tmpK: make([]float64, a.Cols),
	}
}

// Dim returns the operator dimension (rows of A).
func (o *ImplicitSimilarity) Dim() int { return o.A.Rows }

// Apply computes y = D^{-1/2} Ā Āᵀ D^{-1/2} x via two row-parallel SpMVs.
func (o *ImplicitSimilarity) Apply(x, y []float64) error {
	if err := checkDims(o.A.Rows, x, y); err != nil {
		return err
	}
	mulInto(o.tmpN, x, o.InvSqrt)
	if err := sparse.SpMV(o.At, o.tmpN, o.tmpK); err != nil {
		return fmt.Errorf("%w: ImplicitSimilarity Āᵀ: %v", ErrOperatorDim, err)
	}
	if err := sparse.SpMV(o.A, o.tmpK, y); err != nil {
		return fmt.Errorf("%w: ImplicitSimilarity Ā: %v", ErrOperatorDim, err)
	}
	mulInPlace(y, o.InvSqrt)
	return nil
}
