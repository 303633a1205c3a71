package core

import (
	"context"
	"math/rand"
	"testing"

	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// plantedBlockMatrix builds a clean k-block-diagonal pattern over n rows with
// a symmetric random relabeling: row i of block t draws ~70% of the block's
// columns, so rows within a block overlap heavily and rows across blocks not
// at all. The normalized similarity spectrum has exactly k dominant
// eigenvalues — the canonical eigengap golden fixture.
func plantedBlockMatrix(t *testing.T, n, k int, seed int64) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		bl := i * k / n
		lo, hi := bl*n/k, (bl+1)*n/k
		if hi > n {
			hi = n
		}
		var cols []int32
		for j := lo; j < hi; j++ {
			if rng.Float64() < 0.7 || j == i {
				cols = append(cols, int32(perm[j]))
			}
		}
		if len(cols) == 0 {
			cols = []int32{int32(perm[i])}
		}
		rows[perm[i]] = cols
	}
	m, err := sparse.FromRows(n, n, rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// noisyPlanted is plantedBlockMatrix plus cross-block noise: each row also
// draws a handful of uniformly random columns. The noise breaks the exact
// within-block degeneracies of the clean generator, which sharpens the
// eigengap (the clean fixture's secondary within-block structure keeps
// trailing eigenvalues high) — the realistic golden fixture for large k.
func noisyPlanted(t *testing.T, n, k int, noise float64, seed int64) *sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		bl := i * k / n
		lo, hi := bl*n/k, (bl+1)*n/k
		if hi > n {
			hi = n
		}
		set := map[int32]struct{}{}
		for j := lo; j < hi; j++ {
			if rng.Float64() < 0.7 || j == i {
				set[int32(perm[j])] = struct{}{}
			}
		}
		for len(set) < 2 || rng.Float64() < noise*float64(hi-lo) {
			set[int32(rng.Intn(n))] = struct{}{}
		}
		cols := make([]int32, 0, len(set))
		for c := range set {
			cols = append(cols, c)
		}
		rows[perm[i]] = cols
	}
	m, err := sparse.FromRows(n, n, rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// plantedCases are the golden auto-k fixtures: k planted blocks over n rows,
// with cross-block noise for the large-k ones (see noisyPlanted).
var plantedCases = []struct {
	n, k  int
	noise float64
}{
	{96, 3, 0},
	{144, 6, 0},
	{480, 24, 0.04},
	{640, 64, 0.04},
}

func plantedFixture(t *testing.T, n, k int, noise float64) *sparse.CSR {
	t.Helper()
	if noise > 0 {
		return noisyPlanted(t, n, k, noise, int64(k))
	}
	return plantedBlockMatrix(t, n, k, int64(k))
}

func TestAutoKRecoversPlantedK(t *testing.T) {
	for _, c := range plantedCases {
		m := plantedFixture(t, c.n, c.k, c.noise)
		k, ratio, outcome, err := EigengapK(context.Background(), m, SpectralOptions{Seed: 7})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if outcome != AutoKSelected {
			t.Fatalf("n=%d k=%d: outcome %s (k=%d ratio=%.3f), want selected", c.n, c.k, outcome, k, ratio)
		}
		if k != c.k {
			t.Errorf("n=%d planted k=%d: eigengap picked %d (ratio %.3f)", c.n, c.k, k, ratio)
		}
	}
}

// TestAutoKMatchesForceK: a selection is planned with FixedK at the selected
// k, and that plan is bit-identical to a forced pipeline plan at the same k
// and seed, so the SC experiment scores the order a ForceK request at that k
// would get.
func TestAutoKMatchesForceK(t *testing.T) {
	for _, c := range plantedCases {
		m := plantedFixture(t, c.n, c.k, c.noise)
		opts := SpectralOptions{Seed: 7}
		k, _, outcome, err := EigengapK(context.Background(), m, opts)
		if err != nil || outcome != AutoKSelected {
			t.Fatalf("n=%d k=%d: outcome %s, %v; want a selection", c.n, c.k, outcome, err)
		}
		auto, err := FixedK{K: k, Opts: opts}.Reorder(m)
		if err != nil {
			t.Fatalf("n=%d FixedK=%d: %v", c.n, k, err)
		}
		if err := auto.Perm.Validate(c.n); err != nil {
			t.Fatalf("n=%d FixedK=%d: invalid permutation: %v", c.n, k, err)
		}
		forced := &Pipeline{ForceReorder: true, ForceK: k, Spectral: opts}
		fixed, err := forced.ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("n=%d ForceK=%d: %v", c.n, k, err)
		}
		if fixed.Degraded {
			t.Fatalf("n=%d ForceK=%d: degraded: %s", c.n, k, fixed.DegradedReason)
		}
		if !sameInt32(auto.Perm, fixed.Perm) {
			t.Errorf("n=%d: FixedK plan at k=%d differs from the ForceK plan", c.n, k)
		}
	}
}

func TestAutoKAmbiguousSpectrumFallsBack(t *testing.T) {
	// Uniform random sparsity: the spectrum decays smoothly, no gap clears
	// the ratio threshold. Single blob: every row shares one support, the
	// spectrum is one dominant eigenvalue then noise floor.
	blobRows := make([][]int32, 64)
	for i := range blobRows {
		blobRows[i] = []int32{0, 1, 2, 3, 4, 5, 6, 7}
	}
	blob, err := sparse.FromRows(64, 64, blobRows)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := map[string]*sparse.CSR{
		"uniform-random": workloads.Generate(workloads.ArchRandom,
			workloads.Params{Rows: 200, Cols: 200, Density: 0.04, Seed: 11}),
		"single-blob": blob,
	}
	for name, m := range fixtures {
		k, ratio, outcome, err := EigengapK(context.Background(), m, SpectralOptions{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if outcome != AutoKFallbackAmbiguous || ratio >= autoKMinGapRatio {
			t.Errorf("%s: outcome %s at k=%d ratio %.3f, want %s below %.2f",
				name, outcome, k, ratio, AutoKFallbackAmbiguous, autoKMinGapRatio)
		}
	}
}

func TestAutoKImplicitTierFallsBack(t *testing.T) {
	m := plantedBlockMatrix(t, 96, 3, 3)
	k, ratio, outcome, err := EigengapK(context.Background(), m, SpectralOptions{Seed: 7, Similarity: SimImplicit})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != AutoKFallbackImplicit || k != 0 || ratio != 0 {
		t.Errorf("outcome %s k=%d ratio=%g, want %s with no spectrum", outcome, k, ratio, AutoKFallbackImplicit)
	}
}

func TestSelectEigengap(t *testing.T) {
	// Planted 4-cluster spectrum: gap between values[3] and values[4].
	vals := []float64{1.0, 0.98, 0.97, 0.95, 0.21, 0.18, 0.1}
	k, ratio, ok := selectEigengap(vals, 2, 6, 1e-2, 1.1)
	if !ok || k != 4 {
		t.Errorf("k=%d ok=%v ratio=%.2f, want k=4", k, ok, ratio)
	}
	// Smooth decay: no ratio clears the threshold.
	if _, _, ok := selectEigengap([]float64{1.0, 0.99, 0.985, 0.98, 0.975}, 2, 4, 1e-2, 1.1); ok {
		t.Error("smooth spectrum selected a k")
	}
	// Noise floor clamps the denominator: a tiny trailing eigenvalue must
	// not produce an unbounded ratio beyond the stop clamp.
	_, ratio, _ = selectEigengap([]float64{1.0, 0.5, 1e-9}, 2, 2, 1e-2, 1.1)
	if ratio > 0.5/1e-2+1e-9 {
		t.Errorf("noise-floor eigenvalue inflated ratio to %g", ratio)
	}
	// Spectrum exhausted below stop before kmin: nothing selectable.
	if _, _, ok := selectEigengap([]float64{1e-3, 1e-4, 1e-5}, 2, 2, 1e-2, 1.1); ok {
		t.Error("dead spectrum selected a k")
	}
}

// TestAutoKOutcomeLabel: EigengapK returns exactly one of its three outcome
// labels, with k and ratio consistent with it — a selection in [2, autoKMax]
// at or above the threshold, an ambiguous fallback below it (nothing solved
// on a matrix too small to have a gap), an implicit fallback with no
// spectrum.
func TestAutoKOutcomeLabel(t *testing.T) {
	tiny, err := sparse.FromRows(2, 2, [][]int32{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		m       *sparse.CSR
		sim     SimilarityMode
		outcome string
	}{
		{"planted", plantedBlockMatrix(t, 96, 3, 3), SimAuto, AutoKSelected},
		{"uniform-random", workloads.Generate(workloads.ArchRandom,
			workloads.Params{Rows: 200, Cols: 200, Density: 0.04, Seed: 11}), SimAuto, AutoKFallbackAmbiguous},
		{"two rows", tiny, SimAuto, AutoKFallbackAmbiguous},
		{"implicit", plantedBlockMatrix(t, 96, 3, 3), SimImplicit, AutoKFallbackImplicit},
	}
	for _, c := range cases {
		k, ratio, outcome, err := EigengapK(context.Background(), c.m, SpectralOptions{Seed: 7, Similarity: c.sim})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if outcome != c.outcome {
			t.Errorf("%s: outcome %q, want %q", c.name, outcome, c.outcome)
			continue
		}
		var ok bool
		switch outcome {
		case AutoKSelected:
			ok = k >= 2 && k <= autoKMax && ratio >= autoKMinGapRatio
		case AutoKFallbackAmbiguous:
			ok = ratio < autoKMinGapRatio && (c.m.Rows > 2 || k == 0 && ratio == 0)
		case AutoKFallbackImplicit:
			ok = k == 0 && ratio == 0
		}
		if !ok {
			t.Errorf("%s: %s with k=%d ratio=%.3f is inconsistent", c.name, outcome, k, ratio)
		}
	}
}
