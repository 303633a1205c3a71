package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed in the order they were added (or
// collapsed for patterns) when converting to CSR.
type COO struct {
	Rows, Cols int
	I, J       []int32
	V          []float64 // nil for pattern-only
	pattern    bool
}

// NewCOO returns an empty COO builder for a rows×cols matrix. If pattern is
// true the builder stores no values and produces a pattern CSR.
func NewCOO(rows, cols int, pattern bool) *COO {
	return &COO{Rows: rows, Cols: cols, pattern: pattern}
}

// Add appends entry (i, j, v). For pattern builders v is ignored.
func (c *COO) Add(i, j int, v float64) {
	c.I = append(c.I, int32(i))
	c.J = append(c.J, int32(j))
	if !c.pattern {
		c.V = append(c.V, v)
	}
}

// AddPattern appends entry (i, j) with an implicit value of 1.
func (c *COO) AddPattern(i, j int) { c.Add(i, j, 1) }

// Len returns the number of accumulated (possibly duplicate) entries.
func (c *COO) Len() int { return len(c.I) }

// ToCSR converts the accumulated entries into a validated CSR matrix,
// sorting rows and merging duplicates (summing values in the order they
// were added, or collapsing for pattern builders).
//
// Entries are placed by a stable counting sort on rows, skipped when the rows
// arrived in order, and a row's columns are sorted only when they arrived out
// of order: input that is already CSR-ordered is checked and copied.
func (c *COO) ToCSR() (*CSR, error) {
	n := len(c.I)
	rowPtr := make([]int64, c.Rows+1)
	inOrder := true
	for k, i := range c.I {
		if i < 0 || int(i) >= c.Rows || c.J[k] < 0 || int(c.J[k]) >= c.Cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrColIndex, i, c.J[k], c.Rows, c.Cols)
		}
		rowPtr[i+1]++
		if k > 0 && i < c.I[k-1] {
			inOrder = false
		}
	}
	for i := 0; i < c.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int32, n)
	var val []float64
	if !c.pattern {
		val = make([]float64, n)
	}
	if inOrder {
		// Rows arrived in order: the entries already sit where the stable
		// scatter below would put them.
		copy(col, c.J)
		copy(val, c.V)
	} else {
		// rowPtr[i] walks row i's slots; afterwards it holds the row's end,
		// which the shift below turns back into the next row's start.
		for k, i := range c.I {
			p := rowPtr[i]
			col[p] = c.J[k]
			if val != nil {
				val[p] = c.V[k]
			}
			rowPtr[i]++
		}
		copy(rowPtr[1:], rowPtr[:c.Rows])
		rowPtr[0] = 0
	}

	var keys []uint64
	var tmp []float64
	out, lo := int64(0), int64(0)
	for i := 0; i < c.Rows; i++ {
		hi := rowPtr[i+1]
		if strictlyIncreasing(col[lo:hi]) {
			// Nothing to merge; close the gap earlier merges left, if any.
			copy(col[out:], col[lo:hi])
			if val != nil {
				copy(val[out:], val[lo:hi])
			}
			out += hi - lo
		} else {
			if val == nil {
				slices.Sort(col[lo:hi])
			} else {
				keys, tmp = sortStable(col[lo:hi], val[lo:hi], keys, tmp)
			}
			first := out
			for p := lo; p < hi; p++ {
				if out > first && col[out-1] == col[p] {
					if val != nil {
						val[out-1] += val[p]
					}
					continue
				}
				col[out] = col[p]
				if val != nil {
					val[out] = val[p]
				}
				out++
			}
		}
		rowPtr[i+1] = out
		lo = hi
	}
	col = col[:out]
	if val != nil {
		val = val[:out]
	}
	return NewCSR(c.Rows, c.Cols, rowPtr, col, val)
}

func strictlyIncreasing(s []int32) bool {
	for p := 1; p < len(s); p++ {
		if s[p] <= s[p-1] {
			return false
		}
	}
	return true
}

// sortStable orders a row's entries by column, keeping entries of equal
// column in their input order. keys and tmp are scratch, returned for reuse.
func sortStable(col []int32, val []float64, keys []uint64, tmp []float64) ([]uint64, []float64) {
	keys = keys[:0]
	for p, c := range col {
		keys = append(keys, uint64(c)<<32|uint64(p))
	}
	slices.Sort(keys)
	tmp = append(tmp[:0], val...)
	for p, k := range keys {
		col[p] = int32(k >> 32)
		val[p] = tmp[uint32(k)]
	}
	return keys, tmp
}

// FromRows builds a pattern CSR from per-row column lists. Each list is
// sorted and deduplicated; the input is not modified.
func FromRows(rows, cols int, rowCols [][]int32) (*CSR, error) {
	if len(rowCols) != rows {
		return nil, fmt.Errorf("%w: %d row lists for %d rows", ErrShape, len(rowCols), rows)
	}
	rowPtr := make([]int64, rows+1)
	total := 0
	for _, r := range rowCols {
		total += len(r)
	}
	col := make([]int32, 0, total)
	scratch := make([]int32, 0, 64)
	for i, r := range rowCols {
		scratch = append(scratch[:0], r...)
		sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
		prev := int32(-1)
		for _, cix := range scratch {
			if cix == prev {
				continue
			}
			col = append(col, cix)
			prev = cix
		}
		rowPtr[i+1] = int64(len(col))
	}
	return NewCSR(rows, cols, rowPtr, col, nil)
}

// Dense converts m to a dense row-major matrix. Intended for tests on small
// matrices only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		vals := m.RowVals(i)
		for p, c := range m.Row(i) {
			if vals == nil {
				d[i][c] = 1
			} else {
				d[i][c] = vals[p]
			}
		}
	}
	return d
}

// FromDense builds a CSR from a dense row-major matrix, storing every
// non-zero entry. Intended for tests.
func FromDense(d [][]float64) (*CSR, error) {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	coo := NewCOO(rows, cols, false)
	for i, r := range d {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: ragged dense input", ErrShape)
		}
		for j, v := range r {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
