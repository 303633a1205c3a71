package sparse

import (
	"fmt"
	"slices"

	"bootes/internal/parallel"
)

// SpGEMM computes C = A·B with Gustavson's row-wise product: for each row i
// of A, the partial row Σ_k A[i,k]·B[k,:] is accumulated in a sparse
// accumulator. This is the dataflow used by the accelerators Bootes targets.
//
// If either input is a pattern matrix its stored entries are treated as 1.
func SpGEMM(a, b *CSR) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: A is %dx%d, B is %dx%d", ErrDimension, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := &CSR{Rows: a.Rows, Cols: b.Cols}
	c.RowPtr = make([]int64, a.Rows+1)
	c.Val = []float64{} // SpGEMM output is always valued, even when empty

	// Sparse accumulator (SPA): dense value array + touched-column marker.
	acc := make([]float64, b.Cols)
	mark := make([]int64, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	touched := make([]int32, 0, 256)

	for i := 0; i < a.Rows; i++ {
		touched = touched[:0]
		aVals := a.RowVals(i)
		for p, k := range a.Row(i) {
			av := 1.0
			if aVals != nil {
				av = aVals[p]
			}
			bVals := b.RowVals(int(k))
			bRow := b.Row(int(k))
			for q, j := range bRow {
				bv := 1.0
				if bVals != nil {
					bv = bVals[q]
				}
				if mark[j] != int64(i) {
					mark[j] = int64(i)
					acc[j] = 0
					touched = append(touched, j)
				}
				acc[j] += av * bv
			}
		}
		slices.Sort(touched)
		for _, j := range touched {
			c.Col = append(c.Col, j)
			c.Val = append(c.Val, acc[j])
		}
		c.RowPtr[i+1] = int64(len(c.Col))
	}
	return c, nil
}

// SpGEMMPattern computes the sparsity pattern of A·B without values, which
// is cheaper and sufficient for similarity-matrix construction and traffic
// analysis.
func SpGEMMPattern(a, b *CSR) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: A is %dx%d, B is %dx%d", ErrDimension, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := &CSR{Rows: a.Rows, Cols: b.Cols}
	c.RowPtr = make([]int64, a.Rows+1)
	mark := make([]int64, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	touched := make([]int32, 0, 256)
	for i := 0; i < a.Rows; i++ {
		touched = touched[:0]
		for _, k := range a.Row(i) {
			for _, j := range b.Row(int(k)) {
				if mark[j] != int64(i) {
					mark[j] = int64(i)
					touched = append(touched, j)
				}
			}
		}
		slices.Sort(touched)
		c.Col = append(c.Col, touched...)
		c.RowPtr[i+1] = int64(len(c.Col))
	}
	return c, nil
}

// FlopCount returns the number of scalar multiply-accumulates Gustavson's
// algorithm performs for A·B: Σ_i Σ_{k∈row i of A} nnz(B[k,:]). This also
// equals the number of partial-product entries generated.
func FlopCount(a, b *CSR) (int64, error) {
	if a.Cols != b.Rows {
		return 0, fmt.Errorf("%w: A is %dx%d, B is %dx%d", ErrDimension, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	bRowNNZ := make([]int64, b.Rows)
	for k := 0; k < b.Rows; k++ {
		bRowNNZ[k] = b.RowPtr[k+1] - b.RowPtr[k]
	}
	var flops int64
	for _, k := range a.Col {
		flops += bRowNNZ[k]
	}
	return flops, nil
}

// spmvGrain is the fixed row-chunk size of the parallel SpMV. Like rowGrain
// it is independent of the worker count; each chunk writes a disjoint y
// region and each y[i] is a self-contained row sum, so the result is
// bit-identical to the sequential loop for any worker count.
const spmvGrain = 512

// SpMVInlineRows is the row count below which SpMV runs as one chunk on the
// caller's goroutine. A Lanczos operator apply on a cold-corpus matrix
// (768–2 080 rows) is tens of microseconds of row sums, too little to pay
// for handing chunks to worker goroutines on each of a solve's hundred or
// so applies. From this size up, the rows split into spmvGrain-row chunks
// so a large matrix still spreads over every worker.
const SpMVInlineRows = 4096

// SpMV computes y = A·x for a dense vector x. Pattern matrices use implicit
// ones. The result is written into y, which must have length A.Rows. Rows
// are processed in parallel chunks from SpMVInlineRows rows up; x and y
// must not alias.
func SpMV(a *CSR, x, y []float64) error {
	if len(x) != a.Cols || len(y) != a.Rows {
		return fmt.Errorf("%w: SpMV with %dx%d, len(x)=%d len(y)=%d", ErrDimension, a.Rows, a.Cols, len(x), len(y))
	}
	grain := spmvGrain
	if a.Rows < SpMVInlineRows {
		grain = a.Rows
	}
	parallel.For(a.Rows, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum := 0.0
			vals := a.RowVals(i)
			if vals == nil {
				for _, c := range a.Row(i) {
					sum += x[c]
				}
			} else {
				row := a.Row(i)
				for p, c := range row {
					sum += vals[p] * x[c]
				}
			}
			y[i] = sum
		}
	})
	return nil
}
