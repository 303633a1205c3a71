package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExtractRows(t *testing.T) {
	m := mustCSR(t, 3, 4, []int64{0, 2, 3, 5}, []int32{0, 2, 1, 0, 3}, []float64{1, 2, 3, 4, 5})
	sub, err := ExtractRows(m, []int32{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows != 2 || sub.Cols != 4 {
		t.Fatalf("shape %dx%d", sub.Rows, sub.Cols)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.At(0, 0) != 4 || sub.At(0, 3) != 5 || sub.At(1, 0) != 1 {
		t.Errorf("values wrong: %v", sub.Dense())
	}
	if _, err := ExtractRows(m, []int32{5}); err == nil {
		t.Error("out-of-range row accepted")
	}
	// Duplicates are allowed.
	dup, err := ExtractRows(m, []int32{1, 1})
	if err != nil || dup.NNZ() != 2 {
		t.Errorf("duplicate extraction failed: %v %v", dup, err)
	}
}

func TestPermuteSymmetricPreservesPatternStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 12, 12, 0.3)
	perm := IdentityPerm(12)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	pm, err := PermuteSymmetric(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	// (PAPᵀ)[i][j] = A[perm[i]][perm[j]].
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if pm.Has(i, j) != m.Has(int(perm[i]), int(perm[j])) {
				t.Fatalf("entry (%d,%d) mismatch", i, j)
			}
		}
	}
	if _, err := PermuteSymmetric(Zero(2, 3), IdentityPerm(2)); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := PermuteSymmetric(m, Permutation{0}); err == nil {
		t.Error("bad permutation accepted")
	}
}

func TestPermuteSymmetricInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		m := randomCSR(rng, n, n, 0.3)
		perm := IdentityPerm(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		pm, err := PermuteSymmetric(m, perm)
		if err != nil {
			return false
		}
		back, err := PermuteSymmetric(pm, perm.Inverse())
		if err != nil {
			return false
		}
		return PatternEqual(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
