package sparse

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers. Run as regular tests on the seed corpus
// by `go test`; `go test -fuzz FuzzReadMatrixMarket ./internal/sparse` digs
// deeper.

// FuzzReadMatrixMarket holds ReadMatrixMarket to the reference reader it
// replaced (referenceReadCOO + referenceToCSR): both reject an input, or
// both accept it with the same pattern and bit-identical values. A cell
// built from several entries is the exception; its value must equal their
// sum in input order, which the reference's sort.Slice does not fix.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1.0\n2 1 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999999\n1 1 1\n")
	// Hostile headers: astronomically large dims/nnz, overflowing indices,
	// and values at the edges of float parsing. Parsers must reject or
	// bound-allocate; they must never panic or balloon memory.
	f.Add("%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9223372036854775807\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775807\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n9223372036854775807 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n3 3 1\n3 1 1e309\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2147483647 2147483647 0\n")
	// Syntax the byte-level splitter must treat as strings.Fields does.
	f.Add("%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.0\r\n2 2 2.0\r\n")
	f.Add("%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\n2\t2\t1\n\t1\t2\t3.5\t\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n+1 01 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n-0 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0 extra 7\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 x y\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n% note\n\n  % indented\n\v\f\n3 3 2")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0x1p-2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 nan\n1 1 -inf\n2 2 +Inf\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n010 2 1\n1 1 1\n")
	// Lines longer than the reader's buffer: a comment and an entry whose
	// trailing fields run past it.
	long := strings.Repeat("x", 70000)
	f.Add("%%MatrixMarket matrix coordinate real general\n% " + long + "\n2 2 1\n1 2 3.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0 " + long + "\n")
	// Duplicates: symmetric mirrors landing on entries given explicitly, and
	// three terms whose sum depends on the order they are added in.
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n2 1 1.0\n2 1 2.0\n1 2 0.5\n3 3 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 3\n1 1 1e16\n1 1 1\n1 1 -1e16\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n3 1\n1 3\n3 1\n")
	// Rows out of order, and columns out of order within a row.
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 5\n3 1 1\n1 3 2\n2 2 3\n1 1 4\n3 2 5\n")
	// Symmetric but not square: a mirror inside the matrix is accepted, one
	// outside it is not.
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n2 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n")
	// Unicode: strings.Fields splits on U+00A0 and U+3000, and ToLower maps
	// the Kelvin sign to 'k'.
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a02 3.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n\u30002\u30001\u3000\n")
	f.Add("%%MatrixMar\u212aet matrix coordinate pattern general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.0\xff\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadMatrixMarket(strings.NewReader(input))
		coo, refErr := referenceReadCOO(strings.NewReader(input))
		var ref *CSR
		if refErr == nil {
			ref, refErr = referenceToCSR(coo)
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("reader error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMMFormat) {
				t.Fatalf("rejection %v does not wrap ErrMMFormat", err)
			}
			return // rejecting bad input is fine; crashing is not
		}
		if !PatternEqual(m, ref) || m.IsPattern() != ref.IsPattern() {
			t.Fatal("reader and reference disagree on the pattern")
		}
		if !m.IsPattern() {
			sums, terms := inputOrderSums(coo)
			for i := 0; i < m.Rows; i++ {
				for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
					cell := [2]int32{int32(i), m.Col[p]}
					got := math.Float64bits(m.Val[p])
					if want := math.Float64bits(sums[cell]); got != want {
						t.Fatalf("(%d,%d) = %x, want the input-order sum %x", i, m.Col[p], got, want)
					}
					if want := math.Float64bits(ref.Val[p]); terms[cell] == 1 && got != want {
						t.Fatalf("(%d,%d) = %x, reference %x", i, m.Col[p], got, want)
					}
				}
			}
		}
		// Anything accepted must be a valid matrix that round-trips.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("cannot re-serialize accepted matrix: %v", err)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("cannot re-parse own output: %v", err)
		}
		if !Equal(m, back) {
			t.Fatal("round trip changed the matrix")
		}
	})
}

// inputOrderSums sums each cell's entries in the order they were added, and
// counts them.
func inputOrderSums(c *COO) (map[[2]int32]float64, map[[2]int32]int) {
	sums := make(map[[2]int32]float64)
	terms := make(map[[2]int32]int)
	for k := range c.I {
		cell := [2]int32{c.I[k], c.J[k]}
		if terms[cell] == 0 {
			sums[cell] = c.V[k]
		} else {
			sums[cell] += c.V[k]
		}
		terms[cell]++
	}
	return sums, terms
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a few valid encodings and mutations.
	for _, m := range []*CSR{
		Zero(2, 3),
		Identity(4, true),
		Identity(4, false),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("BCSR"))
	f.Add([]byte{})
	// Hostile header: valid magic/version with a huge claimed nnz and no
	// payload — must fail after at most one bounded chunk, not OOM.
	hostile := append([]byte("BCSR"), []byte{
		1, 0, 0, 0, // version 1
		0, 0, 1, 0, 0, 0, 0, 0, // rows = 65536
		0, 0, 1, 0, 0, 0, 0, 0, // cols = 65536
		0, 0, 0, 8, 0, 0, 0, 0, // nnz = 2^27 (at the cap)
		1, // hasVal
	}...)
	f.Add(hostile)
	// Truncated-at-limit bodies: a valid encoding cut off exactly where an
	// upload guard (http.MaxBytesReader) would stop reading — once inside the
	// row-pointer block, once inside the value block. The parser sees a clean
	// prefix with no corruption marker and must fail on the missing bytes,
	// never hang or accept a partial matrix.
	var whole bytes.Buffer
	if err := WriteBinary(&whole, Identity(64, true)); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes()[:512])
	f.Add(whole.Bytes()[:whole.Len()-64])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatalf("cannot re-serialize: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil || !Equal(m, back) {
			t.Fatal("round trip failed")
		}
	})
}

// FuzzNewCSR drives the constructor with arbitrary row pointers and column
// indices decoded from raw bytes: whatever it accepts must satisfy every CSR
// invariant, and it must reject (not panic on) everything else.
func FuzzNewCSR(f *testing.F) {
	f.Add(2, 2, []byte{0, 1, 2}, []byte{0, 1})
	f.Add(1, 1, []byte{0, 255}, []byte{0})
	f.Add(-1, 3, []byte{}, []byte{})
	f.Add(3, -7, []byte{0, 0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, rows, cols int, rowPtrB, colB []byte) {
		rowPtr := make([]int64, len(rowPtrB))
		for i, b := range rowPtrB {
			// Spread the byte range across negatives, plausible offsets, and
			// huge values so overflow and extent checks all get exercised.
			rowPtr[i] = int64(b) - 8
			if b > 250 {
				rowPtr[i] = int64(b) << 55
			}
		}
		col := make([]int32, len(colB))
		for i, b := range colB {
			col[i] = int32(b) - 4
		}
		m, err := NewCSR(rows, cols, rowPtr, col, nil)
		if err != nil {
			return // rejecting bad input is fine; crashing is not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("NewCSR accepted an invalid matrix: %v", err)
		}
		if m.NNZ() != int64(len(col)) {
			t.Fatalf("accepted matrix has inconsistent nnz")
		}
		// Accepted matrices must survive the basic accessors.
		for i := 0; i < m.Rows; i++ {
			_ = m.Row(i)
			_ = m.RowNNZ(i)
		}
		_ = m.ModeledBytes()
	})
}
