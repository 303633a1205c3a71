package sparse

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary serialization: a compact little-endian container for CSR matrices.
// It loads about 5× faster than Matrix Market text: 0.43 ms against 2.3 ms
// for a 775-row pattern with 27.9k entries on a 2-vCPU Xeon
// (BenchmarkReadBinary, BenchmarkReadMatrixMarket). Layout:
//
//	magic   [4]byte  "BCSR"
//	version uint32   (1)
//	rows    uint64
//	cols    uint64
//	nnz     uint64
//	hasVal  uint8    (0 pattern, 1 valued)
//	rowPtr  [rows+1]uint64
//	col     [nnz]uint32
//	val     [nnz]float64   (only when hasVal == 1)

var binMagic = [4]byte{'B', 'C', 'S', 'R'}

// binHeaderBytes is the length of the fixed header: magic, version, rows,
// cols, nnz and hasVal.
const binHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1

// BinarySize returns the length of m's BCSR encoding, which WriteBinary
// writes.
func BinarySize(m *CSR) int64 {
	n := binHeaderBytes + 8*int64(m.Rows+1) + 4*m.NNZ()
	if m.Val != nil {
		n += 8 * m.NNZ()
	}
	return n
}

// ErrBinFormat reports a malformed binary matrix stream.
var ErrBinFormat = errors.New("sparse: invalid binary matrix data")

// WriteBinary writes m in the BCSR container format.
func WriteBinary(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	hasVal := uint8(0)
	if m.Val != nil {
		hasVal = 1
	}
	for _, v := range []interface{}{
		uint32(1), uint64(m.Rows), uint64(m.Cols), uint64(m.NNZ()), hasVal,
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, m.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, m.Col); err != nil {
		return err
	}
	if hasVal == 1 {
		if err := binary.Write(bw, binary.LittleEndian, m.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a BCSR stream and validates the matrix.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBinFormat, err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBinFormat, magic)
	}
	var (
		version         uint32
		rows, cols, nnz uint64
		hasVal          uint8
	)
	for _, v := range []interface{}{&version, &rows, &cols, &nnz, &hasVal} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBinFormat, err)
		}
	}
	if version != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBinFormat, version)
	}
	// Allocation guards: reject headers that would allocate unbounded
	// memory before any payload has been checked (a malformed or hostile
	// stream must fail cheaply).
	const (
		maxDim = 1 << 24 // 16.7M rows/cols → ≤128 MB of row pointers
		maxNNZ = 1 << 27 // 134M entries → ≤1.5 GB of payload
	)
	if rows > maxDim || cols > maxDim || nnz > maxNNZ || hasVal > 1 {
		return nil, fmt.Errorf("%w: implausible header (%d x %d, nnz %d)", ErrBinFormat, rows, cols, nnz)
	}
	m := &CSR{Rows: int(rows), Cols: int(cols)}
	var err error
	if m.RowPtr, err = readChunked[int64](br, rows+1); err != nil {
		return nil, fmt.Errorf("%w: row pointers: %v", ErrBinFormat, err)
	}
	if m.Col, err = readChunked[int32](br, nnz); err != nil {
		return nil, fmt.Errorf("%w: column indices: %v", ErrBinFormat, err)
	}
	if hasVal == 1 {
		if m.Val, err = readChunked[float64](br, nnz); err != nil {
			return nil, fmt.Errorf("%w: values: %v", ErrBinFormat, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBinFormat, err)
	}
	return m, nil
}

// ReadBody parses a whole plan-request body: BCSR when it starts with the
// BCSR magic, Matrix Market otherwise.
func ReadBody(body []byte) (*CSR, error) {
	if bytes.HasPrefix(body, binMagic[:]) {
		return ReadBinary(bytes.NewReader(body))
	}
	return ReadMatrixMarket(bytes.NewReader(body))
}

// binReadChunk is the element count per incremental read of readChunked.
const binReadChunk = 1 << 16

// readChunked reads n little-endian elements in bounded increments, so the
// memory pinned by a hostile header is proportional to the payload actually
// present in the stream, not to the claimed element count: a huge-nnz header
// on a short stream fails after at most one chunk.
func readChunked[T int32 | int64 | float64](br io.Reader, n uint64) ([]T, error) {
	out := make([]T, 0, min(n, binReadChunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, binReadChunk)
		chunk := make([]T, c)
		if err := binary.Read(br, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		remaining -= c
	}
	return out, nil
}
