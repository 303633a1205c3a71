package sparse

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTransposeSmall(t *testing.T) {
	a := mustCSR(t, 2, 3, []int64{0, 2, 3}, []int32{0, 2, 1}, []float64{1, 2, 3})
	at := Transpose(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d, want 3x2", at.Rows, at.Cols)
	}
	if err := at.Validate(); err != nil {
		t.Fatalf("invalid transpose: %v", err)
	}
	if at.At(0, 0) != 1 || at.At(2, 0) != 2 || at.At(1, 1) != 3 {
		t.Errorf("transpose values wrong: %v", at.Dense())
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomValuedCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3)
		return Equal(a, Transpose(Transpose(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestColAndRowCounts(t *testing.T) {
	a := mustCSR(t, 3, 3, []int64{0, 2, 2, 3}, []int32{0, 2, 2}, nil)
	cc := ColCounts(a)
	if cc[0] != 1 || cc[1] != 0 || cc[2] != 2 {
		t.Errorf("ColCounts = %v", cc)
	}
	rc := RowCounts(a)
	if rc[0] != 2 || rc[1] != 0 || rc[2] != 1 {
		t.Errorf("RowCounts = %v", rc)
	}
}

func TestPermuteRowsAndBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomValuedCSR(rng, 10, 7, 0.4)
	perm := IdentityPerm(10)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	p, err := PermuteRows(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("permuted invalid: %v", err)
	}
	// Row i of p must be row perm[i] of a.
	for i := 0; i < 10; i++ {
		src := int(perm[i])
		if p.RowNNZ(i) != a.RowNNZ(src) {
			t.Fatalf("row %d nnz mismatch", i)
		}
		for idx, c := range p.Row(i) {
			if c != a.Row(src)[idx] {
				t.Fatalf("row %d col mismatch", i)
			}
		}
	}
	back, err := UnpermuteRows(p, perm)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, back) {
		t.Error("unpermute did not restore original")
	}
}

func TestPermutationValidate(t *testing.T) {
	if err := (Permutation{0, 1, 2}).Validate(3); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
	if err := (Permutation{0, 1}).Validate(3); err == nil {
		t.Error("short perm accepted")
	}
	if err := (Permutation{0, 0, 2}).Validate(3); err == nil {
		t.Error("duplicate perm accepted")
	}
	if err := (Permutation{0, 3, 2}).Validate(3); err == nil {
		t.Error("out-of-range perm accepted")
	}
}

func TestPermutationInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		p := IdentityPerm(n)
		rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		inv := p.Inverse()
		// p ∘ inv = identity under Compose.
		c, err := Compose(p, inv)
		if err != nil {
			return false
		}
		return c.IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestComposeErrors(t *testing.T) {
	if _, err := Compose(Permutation{0}, Permutation{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Compose(Permutation{0, 1}, Permutation{0, 5}); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestSimilaritySmall(t *testing.T) {
	// Rows: {0,1}, {1,2}, {0,1}. Similarity counts shared columns.
	a := mustCSR(t, 3, 3, []int64{0, 2, 4, 6}, []int32{0, 1, 1, 2, 0, 1}, nil)
	s := Similarity(a)
	if s.At(0, 0) != 2 || s.At(1, 1) != 2 || s.At(2, 2) != 2 {
		t.Errorf("diagonal should equal row nnz: %v", s.Dense())
	}
	if s.At(0, 1) != 1 || s.At(0, 2) != 2 || s.At(1, 2) != 1 {
		t.Errorf("off-diagonals wrong: %v", s.Dense())
	}
	// Similarity must be symmetric.
	st := Transpose(s)
	if !Equal(s, st) {
		t.Error("similarity not symmetric")
	}
}

func TestSimilarityDiagonalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.3)
		s := Similarity(a)
		for i := 0; i < a.Rows; i++ {
			want := float64(a.RowNNZ(i))
			if want == 0 {
				if s.RowNNZ(i) != 0 {
					return false
				}
				continue
			}
			if s.At(i, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionAndJaccard(t *testing.T) {
	a := mustCSR(t, 3, 4, []int64{0, 2, 4, 4}, []int32{0, 1, 1, 3}, nil)
	if got := IntersectionSize(a, 0, 1); got != 1 {
		t.Errorf("IntersectionSize = %d, want 1", got)
	}
	if got := Jaccard(a, 0, 1); got != 1.0/3 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, 2, 2); got != 0 {
		t.Errorf("Jaccard of empty rows = %v, want 0", got)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pattern := range []bool{true, false} {
		var m *CSR
		if pattern {
			m = randomCSR(rng, 12, 9, 0.3)
		} else {
			m = randomValuedCSR(rng, 12, 9, 0.3)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(m, got) {
			t.Errorf("round trip mismatch (pattern=%v)", pattern)
		}
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 1.5
2 1 2.0
3 3 -1.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2.0 || m.At(1, 0) != 2.0 {
		t.Error("symmetric entry not mirrored")
	}
	if m.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		// Symmetric but not square: (3,1) fits 3x2, its mirror (1,3) does not.
		"%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
	}
	for i, in := range cases {
		_, err := ReadMatrixMarket(strings.NewReader(in))
		if err == nil {
			t.Errorf("case %d: expected error", i)
		} else if !errors.Is(err, ErrMMFormat) {
			t.Errorf("case %d: error %v does not wrap ErrMMFormat", i, err)
		}
	}
	_, err := ReadMatrixMarket(strings.NewReader(cases[len(cases)-1]))
	if err == nil || !strings.Contains(err.Error(), "(1,3)") {
		t.Errorf("non-square symmetric error %v does not name the mirrored entry (1,3)", err)
	}
}

func TestFromRowsDeduplicates(t *testing.T) {
	m, err := FromRows(2, 4, [][]int32{{3, 1, 3, 0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if m.RowNNZ(0) != 3 {
		t.Errorf("row 0 nnz = %d, want 3 (dedup)", m.RowNNZ(0))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2, false)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2.5)
	coo.Add(1, 1, -1)
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3.5 {
		t.Errorf("duplicate sum = %v, want 3.5", m.At(0, 0))
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestCOOOutOfRange(t *testing.T) {
	coo := NewCOO(2, 2, true)
	coo.AddPattern(2, 0)
	if _, err := coo.ToCSR(); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := [][]float64{{0, 1.5, 0}, {2, 0, 0}}
	m, err := FromDense(d)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Dense()
	for i := range d {
		for j := range d[i] {
			if got[i][j] != d[i][j] {
				t.Fatalf("dense mismatch at (%d,%d)", i, j)
			}
		}
	}
}
