package sparse

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, pattern bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var m *CSR
		if pattern {
			m = randomCSR(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.25)
		} else {
			m = randomValuedCSR(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.25)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return Equal(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryErrors(t *testing.T) {
	// Truncations at every stage must fail cleanly.
	rng := rand.New(rand.NewSource(24))
	m := randomValuedCSR(rng, 10, 10, 0.3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 2, 4, 8, 20, 29, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte("XXXX"), full[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Corrupted structure (row pointer garbage) must fail validation.
	bad = append([]byte(nil), full...)
	bad[29] = 0xff // first rowPtr byte
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted rowPtr accepted")
	}
}

func TestBinaryEmptyMatrix(t *testing.T) {
	m := Zero(5, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 5 || got.Cols != 7 || got.NNZ() != 0 {
		t.Errorf("empty round trip wrong: %v", got)
	}
}

// TestReadBodyDecodesBothFormats: one body decoder accepts the BCSR and the
// Matrix Market encoding of a matrix and returns the same matrix for both;
// a body in neither format is an error.
func TestReadBodyDecodesBothFormats(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(5)), 12, 9, 0.3)
	var bin, text bytes.Buffer
	if err := WriteBinary(&bin, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(&text, m); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"BCSR": bin.Bytes(), "Matrix Market": text.Bytes()} {
		got, err := ReadBody(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(got, m) {
			t.Errorf("%s body decodes to a different matrix", name)
		}
	}
	for _, body := range []string{"", "BCSR", "not a matrix"} {
		if _, err := ReadBody([]byte(body)); err == nil {
			t.Errorf("ReadBody(%q) succeeded", body)
		}
	}
}
