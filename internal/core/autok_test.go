package core

import (
	"context"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/obs"
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

// autoKPipeline is the golden-test configuration: gate bypassed (the planted
// fixtures are tiny and the decision is not under test), auto-k on with the
// production refinement recipe.
func autoKPipeline(seed int64) *Pipeline {
	return &Pipeline{
		ForceReorder: true,
		Spectral:     SpectralOptions{Seed: seed},
		AutoK:        true,
	}
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
		res, err := autoKPipeline(7).ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if res.Degraded {
			t.Fatalf("n=%d k=%d: degraded: %s", c.n, c.k, res.DegradedReason)
		}
		if !strings.HasPrefix(res.AutoK, AutoKSelected+":") {
			t.Fatalf("n=%d k=%d: outcome %q, want selected", c.n, c.k, res.AutoK)
		}
		if got := int(res.Extra["k"]); got != c.k {
			t.Errorf("n=%d planted k=%d: auto-k picked %d (%s)", c.n, c.k, got, res.AutoK)
		}
		if err := res.Perm.Validate(c.n); err != nil {
			t.Errorf("n=%d k=%d: invalid permutation: %v", c.n, c.k, err)
		}
	}
}

// TestAutoKMatchesForceK: auto-k orders rows with the shared spectral core,
// so a selected plan is bit-identical to a ForceK plan at the selected k and
// the same seed.
func TestAutoKMatchesForceK(t *testing.T) {
	for _, c := range plantedCases {
		m := plantedFixture(t, c.n, c.k, c.noise)
		auto, err := autoKPipeline(7).ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if !strings.HasPrefix(auto.AutoK, AutoKSelected+":") || auto.Degraded {
			t.Fatalf("n=%d k=%d: outcome %q degraded=%v, want a healthy selection", c.n, c.k, auto.AutoK, auto.Degraded)
		}
		k := int(auto.Extra["k"])
		forced := &Pipeline{ForceReorder: true, ForceK: k, Spectral: SpectralOptions{Seed: 7}}
		fixed, err := forced.ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("n=%d ForceK=%d: %v", c.n, k, err)
		}
		if fixed.Degraded {
			t.Fatalf("n=%d ForceK=%d: degraded: %s", c.n, k, fixed.DegradedReason)
		}
		if !sameInt32(auto.Perm, fixed.Perm) {
			t.Errorf("n=%d: auto-k plan at k=%d differs from the ForceK plan", c.n, k)
		}
	}
}

// TestAutoKCountsOneSimilarityTier: under default options below the
// approximate row band, auto-k forms S with an exact kernel and orders rows
// through the implicit operator. The plan reports the operator's tier, and
// bootes_similarity_mode_total counts the attempt once, by the kernel.
func TestAutoKCountsOneSimilarityTier(t *testing.T) {
	reg := obs.NewRegistry()
	m := plantedBlockMatrix(t, 96, 3, 3)
	res, err := autoKPipeline(7).ReorderContext(obs.WithRegistry(context.Background(), reg), m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.AutoK, AutoKSelected+":") || res.SimilarityMode != "implicit" {
		t.Fatalf("outcome %q tier %q, want a selection reporting implicit", res.AutoK, res.SimilarityMode)
	}
	got := map[string]int64{}
	for _, f := range reg.Snapshot() {
		if f.Name == obs.SimilarityModeName {
			for _, s := range f.Series {
				got[s.Labels] = s.Value
			}
		}
	}
	if want := map[string]int64{`mode="exact"`: 1}; !maps.Equal(got, want) {
		t.Errorf("similarity counter = %v, want %v", got, want)
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
		res, err := autoKPipeline(7).ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(res.AutoK, AutoKFallbackAmbiguous) {
			t.Errorf("%s: outcome %q, want %s with a recorded reason", name, res.AutoK, AutoKFallbackAmbiguous)
		}
		if res.Degraded {
			t.Errorf("%s: ambiguous fallback must not be a degradation: %s", name, res.DegradedReason)
		}
		if err := res.Perm.Validate(m.Rows); err != nil {
			t.Errorf("%s: invalid permutation: %v", name, err)
		}
	}
}

func TestAutoKImplicitTierFallsBack(t *testing.T) {
	m := plantedBlockMatrix(t, 96, 3, 3)
	p := autoKPipeline(7)
	p.Spectral.Similarity = SimImplicit
	res, err := p.ReorderContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.AutoK, AutoKFallbackImplicit) {
		t.Errorf("outcome %q, want %s", res.AutoK, AutoKFallbackImplicit)
	}
	if res.Degraded {
		t.Errorf("implicit fallback must not degrade: %s", res.DegradedReason)
	}
}

func TestAutoKNoConvergeDegradesToFixedKLadder(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.AutoKNoConverge); err != nil {
		t.Fatal(err)
	}
	m := plantedBlockMatrix(t, 96, 3, 3)
	res, err := autoKPipeline(7).ReorderContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoK != AutoKDegraded {
		t.Errorf("outcome %q, want %s", res.AutoK, AutoKDegraded)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "autok: eigensolver did not converge") {
		t.Errorf("degradation not recorded: degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
	// The fixed-k ladder still produced a usable plan: a valid bijection with
	// the tree's k, not the identity floor.
	if err := res.Perm.Validate(m.Rows); err != nil {
		t.Fatalf("ladder plan invalid: %v", err)
	}
	if !res.Reordered || res.Extra["k"] == 0 {
		t.Errorf("expected a fixed-k ladder plan, got reordered=%v k=%v", res.Reordered, res.Extra["k"])
	}
}

func TestAutoKRespectsForceK(t *testing.T) {
	m := plantedBlockMatrix(t, 96, 3, 3)
	p := autoKPipeline(7)
	p.ForceK = 4
	res, err := p.ReorderContext(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoK != "" {
		t.Errorf("auto-k ran despite ForceK: %q", res.AutoK)
	}
	if got := int(res.Extra["k"]); got != 4 {
		t.Errorf("k = %d, want forced 4", got)
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

func TestAutoKOutcomeLabel(t *testing.T) {
	cases := map[string]string{
		"selected: k=24 gap-ratio=3.10": "selected",
		"fallback-ambiguous: no gap":    "fallback-ambiguous",
		"degraded":                      "degraded",
		"":                              "",
	}
	for in, want := range cases {
		if got := AutoKOutcomeLabel(in); got != want {
			t.Errorf("AutoKOutcomeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
