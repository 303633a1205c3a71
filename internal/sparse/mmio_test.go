package sparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceReadCOO is the Scanner / strings.Fields reader that
// ReadMatrixMarket replaced, kept verbatim as the differential reference for
// FuzzReadMatrixMarket. The one change is its last line: it returns the
// triples it built, so the fuzz target can also compare the assembly
// (referenceToCSR) and the order duplicates are summed in.
func referenceReadCOO(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrMMFormat)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: bad header %q", ErrMMFormat, sc.Text())
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrMMFormat, field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrMMFormat, symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: missing size line", ErrMMFormat)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: size line %q: %v", ErrMMFormat, line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrMMFormat)
	}
	// Allocation guard, mirroring ReadBinary: the row-pointer array is sized
	// from the header alone, so an implausibly large dimension must fail
	// cheaply before conversion allocates rows+1 pointers.
	const maxMMDim = 1 << 24
	if rows > maxMMDim || cols > maxMMDim {
		return nil, fmt.Errorf("%w: implausible size %dx%d", ErrMMFormat, rows, cols)
	}

	coo := NewCOO(rows, cols, field == "pattern")
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrMMFormat, nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("%w: entry %q", ErrMMFormat, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("%w: entry %q: %v", ErrMMFormat, line, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("%w: entry %q: %v", ErrMMFormat, line, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrMMFormat, i, j, rows, cols)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("%w: entry %q missing value", ErrMMFormat, line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %q: %v", ErrMMFormat, line, err)
			}
		}
		coo.Add(i-1, j-1, v)
		if symmetry == "symmetric" && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return coo, nil
}

// referenceToCSR is the sort.Slice assembly that COO.ToCSR replaced, kept
// verbatim. It sums duplicates in sort.Slice's order, which is unspecified.
func referenceToCSR(c *COO) (*CSR, error) {
	for k := range c.I {
		if c.I[k] < 0 || int(c.I[k]) >= c.Rows || c.J[k] < 0 || int(c.J[k]) >= c.Cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrColIndex, c.I[k], c.J[k], c.Rows, c.Cols)
		}
	}
	n := len(c.I)
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if c.I[ka] != c.I[kb] {
			return c.I[ka] < c.I[kb]
		}
		return c.J[ka] < c.J[kb]
	})

	rowPtr := make([]int64, c.Rows+1)
	col := make([]int32, 0, n)
	var val []float64
	if !c.pattern {
		val = make([]float64, 0, n)
	}
	for idx := 0; idx < n; {
		k := order[idx]
		i, j := c.I[k], c.J[k]
		sum := 0.0
		if !c.pattern {
			sum = c.V[k]
		}
		idx++
		for idx < n {
			k2 := order[idx]
			if c.I[k2] != i || c.J[k2] != j {
				break
			}
			if !c.pattern {
				sum += c.V[k2]
			}
			idx++
		}
		col = append(col, j)
		if !c.pattern {
			val = append(val, sum)
		}
		rowPtr[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return NewCSR(c.Rows, c.Cols, rowPtr, col, val)
}

// hotFleetBody is a Matrix Market body shaped like a hot-fleet request: a
// 775-row block-structured pattern with ~27.9k entries, about 200 KB of
// text, as WriteMatrixMarket writes it.
func hotFleetBody(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, benchMatrix(775, 36, 1)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var benchCSR *CSR

// BenchmarkReadMatrixMarket times one parse of a hot-fleet-shaped body by
// the current reader and by the reference reader it replaced.
func BenchmarkReadMatrixMarket(b *testing.B) {
	body := hotFleetBody(b)
	for _, bc := range []struct {
		name string
		read func(io.Reader) (*CSR, error)
	}{
		{"current", ReadMatrixMarket},
		{"reference", func(r io.Reader) (*CSR, error) {
			coo, err := referenceReadCOO(r)
			if err != nil {
				return nil, err
			}
			return referenceToCSR(coo)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := bc.read(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				benchCSR = m
			}
		})
	}
}

// BenchmarkReadBinary times ReadBinary on the matrix of
// BenchmarkReadMatrixMarket: the comparison behind binio.go's load-speed
// claim, and the parse a forwarded hot-fleet request costs its owner.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchMatrix(775, 36, 1)); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := ReadBinary(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		benchCSR = m
	}
}

// TestReadMatrixMarketAllocs pins the reader's allocations: a constant
// count per call, whatever the number of entries, pattern or valued.
func TestReadMatrixMarketAllocs(t *testing.T) {
	var valued bytes.Buffer
	if err := WriteMatrixMarket(&valued, randomValuedCSR(rand.New(rand.NewSource(1)), 400, 400, 0.05)); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{hotFleetBody(t), valued.Bytes()} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadMatrixMarket(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("ReadMatrixMarket made %.0f allocations on a %d-byte body, want at most 32", allocs, len(body))
		}
	}
}

// TestMatrixMarketErrorsQuoteBoundedInput: whatever part of a 1 MiB body is
// malformed, the error quotes a bounded prefix of it, never the whole line
// or token (a server returns the error as its 400 body).
func TestMatrixMarketErrorsQuoteBoundedInput(t *testing.T) {
	long := strings.Repeat("9", 1<<20)
	const header = "%%MatrixMarket matrix coordinate pattern general\n"
	for name, body := range map[string]string{
		"binary":       strings.Repeat("\x01", 1<<20),
		"header":       "%%MatrixMarket" + long + "\n",
		"field":        "%%MatrixMarket matrix coordinate " + long + " general\n",
		"symmetry":     "%%MatrixMarket matrix coordinate pattern " + long + "\n",
		"size line":    header + "3 3 " + long + "\n",
		"short entry":  header + "3 3 1\n" + long + "\n",
		"row index":    header + "3 3 1\n" + long + " 1\n",
		"column index": header + "3 3 1\n1 x" + long + "\n",
		"value":        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 x" + long + "\n",
	} {
		_, err := ReadMatrixMarket(strings.NewReader(body))
		if !errors.Is(err, ErrMMFormat) {
			t.Errorf("%s: err = %v, want ErrMMFormat", name, err)
			continue
		}
		if n := len(err.Error()); n >= 1<<10 {
			t.Errorf("%s: %d-byte error for a %d-byte body: %.120s…", name, n, len(body), err)
		}
	}
}
