package sparse

import "fmt"

// ExtractRows returns the submatrix consisting of the given rows of m (in
// the given order, duplicates allowed), keeping the full column space.
func ExtractRows(m *CSR, rows []int32) (*CSR, error) {
	out := &CSR{Rows: len(rows), Cols: m.Cols}
	out.RowPtr = make([]int64, len(rows)+1)
	var total int64
	for _, r := range rows {
		if r < 0 || int(r) >= m.Rows {
			return nil, fmt.Errorf("%w: row %d of %d", ErrColIndex, r, m.Rows)
		}
		total += int64(m.RowNNZ(int(r)))
	}
	out.Col = make([]int32, 0, total)
	if m.Val != nil {
		out.Val = make([]float64, 0, total)
	}
	for i, r := range rows {
		out.Col = append(out.Col, m.Row(int(r))...)
		if m.Val != nil {
			out.Val = append(out.Val, m.RowVals(int(r))...)
		}
		out.RowPtr[i+1] = int64(len(out.Col))
	}
	return out, nil
}

// PermuteSymmetric returns P·m·Pᵀ for a square matrix: row i of the result
// is row perm[i] of m with every column index c relabelled to
// inverse(perm)[c]. This is the transformation that preserves A·Aᵀ-style
// self-products under reordering.
func PermuteSymmetric(m *CSR, perm Permutation) (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: symmetric permutation needs a square matrix, got %dx%d", ErrShape, m.Rows, m.Cols)
	}
	if err := perm.Validate(m.Rows); err != nil {
		return nil, err
	}
	inv := perm.Inverse()
	coo := NewCOO(m.Rows, m.Cols, m.Val == nil)
	for newRow := 0; newRow < m.Rows; newRow++ {
		oldRow := int(perm[newRow])
		vals := m.RowVals(oldRow)
		for p, c := range m.Row(oldRow) {
			v := 1.0
			if vals != nil {
				v = vals[p]
			}
			coo.Add(newRow, int(inv[c]), v)
		}
	}
	return coo.ToCSR()
}
