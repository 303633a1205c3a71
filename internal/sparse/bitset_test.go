package sparse

import (
	"math/rand"
	"testing"
)

// hostileBitPatterns are row supports chosen to stress the packer's word
// handling: empty rows, single bits at word boundaries (63/64/65), bits
// sharing one word, bits one-per-word, a fully dense row, and the last
// representable column.
func hostileBitPatterns(cols int) *CSR {
	coo := NewCOO(8, cols, true)
	// row 0: empty
	coo.AddPattern(1, 63)
	coo.AddPattern(1, 64)
	coo.AddPattern(1, 65)
	for c := 0; c < 64 && c < cols; c++ {
		coo.AddPattern(2, c) // one full word
	}
	for c := 0; c < cols; c += 64 {
		coo.AddPattern(3, c) // one bit per word
	}
	for c := 0; c < cols; c++ {
		coo.AddPattern(4, c) // fully dense row
	}
	coo.AddPattern(5, cols-1)
	coo.AddPattern(6, 0)
	coo.AddPattern(6, cols-1)
	coo.AddPattern(7, 63)
	coo.AddPattern(7, 127)
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func TestPackBitRowsHostilePatterns(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 128, 129, 200} {
		m := hostileBitPatterns(maxInt(cols, 130))
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Rows; j++ {
				want := IntersectionSize(m, i, j)
				if got := br.IntersectCount(i, j); got != want {
					t.Fatalf("cols=%d IntersectCount(%d,%d)=%d want %d", cols, i, j, got, want)
				}
			}
		}
	}
}

func TestPackBitRowsRandomMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 60, 150, 0.08)
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			for j := i; j < m.Rows; j++ {
				want := IntersectionSize(m, i, j)
				if got := br.IntersectCount(i, j); got != want {
					t.Fatalf("seed=%d IntersectCount(%d,%d)=%d want %d", seed, i, j, got, want)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FuzzBitsetPack feeds hostile row patterns to the packer and checks the
// packed intersection counts against the merge-based reference.
func FuzzBitsetPack(f *testing.F) {
	f.Add(int64(1), 40, 90, 10)
	f.Add(int64(2), 1, 1, 100)
	f.Add(int64(3), 30, 64, 95)
	f.Add(int64(4), 16, 129, 50)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, pct int) {
		rows = 1 + absInt(rows)%48
		cols = 1 + absInt(cols)%200
		density := float64(absInt(pct)%101) / 100
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, rows, cols, density)
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			j := rng.Intn(m.Rows)
			if got, want := br.IntersectCount(i, j), IntersectionSize(m, i, j); got != want {
				t.Fatalf("IntersectCount(%d,%d)=%d want %d", i, j, got, want)
			}
		}
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
