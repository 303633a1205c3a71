package refine

import (
	"context"
	"math"
	"testing"

	"bootes/internal/sparse"
)

// FuzzRefine drives the full pipeline with hostile hand-assembled CSR inputs
// (never pre-validated — Apply owns the validation). Whatever Apply accepts
// must be a valid square CSR; whatever it rejects must come back as an error,
// never a panic, OOM, or hang.
func FuzzRefine(f *testing.F) {
	// Empty matrix.
	f.Add(0, 0, []byte{0}, []byte{}, []byte{})
	// Single row.
	f.Add(1, 1, []byte{0, 1}, []byte{0}, []byte{200})
	// All-dense 3x3 (rowPtr 0,3,6,9; every column in every row).
	f.Add(3, 3, []byte{0, 3, 6, 9}, []byte{0, 1, 2, 0, 1, 2, 0, 1, 2},
		[]byte{10, 20, 30, 40, 50, 60, 70, 80, 90})
	// Rectangular (must be rejected), negative dims.
	f.Add(2, 3, []byte{0, 1, 2}, []byte{0, 1}, []byte{1, 2})
	f.Add(-1, -1, []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, rows, cols int, rowPtrB, colB, valB []byte) {
		rowPtr := make([]int64, len(rowPtrB))
		for i, b := range rowPtrB {
			rowPtr[i] = int64(b) - 8
			if b > 250 {
				rowPtr[i] = int64(b) << 55
			}
		}
		col := make([]int32, len(colB))
		for i, b := range colB {
			col[i] = int32(b) - 4
		}
		// Values spread across negatives, zeros, and non-finite floats so the
		// threshold quantile and row-max paths see every numeric regime.
		val := make([]float64, len(valB))
		for i, b := range valB {
			switch {
			case b == 255:
				val[i] = math.Inf(1)
			case b == 254:
				val[i] = math.NaN()
			default:
				val[i] = float64(b)/64 - 1
			}
		}
		m := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, Col: col, Val: val}
		out, err := Apply(context.Background(), m)
		if err != nil {
			return // rejecting bad input is fine; crashing is not
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid output: %v", err)
		}
		if out.Rows != out.Cols {
			t.Fatalf("refined output not square: %dx%d", out.Rows, out.Cols)
		}
		if out.Val == nil && out.NNZ() > 0 {
			t.Fatal("refined output lost its values")
		}
		// The recipe ends with a symmetrize, so any accepted input comes out
		// symmetric. NaN values never compare equal, so skip value comparison
		// when the input smuggled NaNs through the arithmetic.
		hasNaN := false
		for _, v := range out.Val {
			if v != v {
				hasNaN = true
				break
			}
		}
		if !hasNaN {
			tr := sparse.Transpose(out)
			if !sparse.Equal(out, tr) {
				t.Fatal("symmetrizing pipeline produced an asymmetric matrix")
			}
		}
	})
}
