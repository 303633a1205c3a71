package core

import (
	"testing"

	"bootes/internal/dtree"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

func blockMatrix(seed int64, groups int) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 2048, Cols: 2048, Density: 0.01, Seed: seed, Groups: groups,
	})
}

func TestSpectralProducesValidPermutation(t *testing.T) {
	a := blockMatrix(1, 8)
	for _, k := range []int{2, 4, 8} {
		res, err := Spectral{Opts: SpectralOptions{K: k, Seed: 3}}.Reorder(a)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Perm.Validate(a.Rows); err != nil {
			t.Errorf("k=%d: invalid perm: %v", k, err)
		}
		if res.K != k {
			t.Errorf("k=%d: reported K=%d", k, res.K)
		}
		if len(res.Eigenvalues) != k {
			t.Errorf("k=%d: %d eigenvalues", k, len(res.Eigenvalues))
		}
		// Top eigenvalue of the normalized similarity must be ≈ 1.
		if res.Eigenvalues[0] < 0.98 || res.Eigenvalues[0] > 1.0001 {
			t.Errorf("k=%d: top eigenvalue %v", k, res.Eigenvalues[0])
		}
	}
}

func TestSpectralRecoversBlockStructure(t *testing.T) {
	// With k equal to the hidden group count — and a cache that can hold one
	// group's B working set (2048/16 rows × ~10 nnz × 12 B ≈ 15 KB) — the
	// spectral reordering should cut B-traffic substantially versus the
	// shuffled original.
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 2048, Cols: 2048, Density: 0.005, Seed: 2, Groups: 16,
	})
	b := a
	const cache = 16 << 10
	const elem = 12
	base, err := trafficmodel.EstimateB(a, b, cache, elem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Spectral{Opts: SpectralOptions{K: 16, Seed: 3}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := trafficmodel.EstimateBWithPerm(a, b, res.Perm, cache, elem)
	if err != nil {
		t.Fatal(err)
	}
	if est.BTraffic >= base.BTraffic {
		t.Fatalf("spectral reordering did not reduce traffic: %d vs %d", est.BTraffic, base.BTraffic)
	}
	improvement := float64(base.BTraffic) / float64(est.BTraffic)
	if improvement < 1.5 {
		t.Errorf("improvement %.2fx too small for a block matrix whose groups fit in cache", improvement)
	}
	t.Logf("traffic improvement: %.2fx (matvecs=%d)", improvement, res.MatVecs)
}

func TestSpectralImplicitMatchesExplicitQuality(t *testing.T) {
	a := blockMatrix(3, 4)
	b := a
	const cache = 16 << 10
	explicit, err := Spectral{Opts: SpectralOptions{K: 4, Seed: 5}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := Spectral{Opts: SpectralOptions{K: 4, Seed: 5, Similarity: SimImplicit}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	te, err := trafficmodel.EstimateBWithPerm(a, b, explicit.Perm, cache, 12)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := trafficmodel.EstimateBWithPerm(a, b, implicit.Perm, cache, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Same operator, same spectra: traffic within 25% of each other.
	ratio := float64(te.BTraffic) / float64(ti.BTraffic)
	if ratio < 0.75 || ratio > 1.33 {
		t.Errorf("implicit vs explicit traffic diverge: %d vs %d", ti.BTraffic, te.BTraffic)
	}
}

func TestSpectralErrors(t *testing.T) {
	a := blockMatrix(4, 4)
	if _, err := (Spectral{Opts: SpectralOptions{K: 1}}).Reorder(a); err == nil {
		t.Error("K=1 accepted")
	}
	// K clamped to n for tiny matrices.
	tiny := sparse.Identity(3, false)
	res, err := Spectral{Opts: SpectralOptions{K: 8, Seed: 1}}.Reorder(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Perm.Validate(3); err != nil {
		t.Error(err)
	}
}

func TestExtractFeaturesRanges(t *testing.T) {
	a := blockMatrix(5, 8)
	f := ExtractFeatures(a)
	if f.Density <= 0 || f.Density > 1 {
		t.Errorf("density %v out of range", f.Density)
	}
	if f.InterAvg < 0 || f.InterAvg > 1 {
		t.Errorf("interAvg %v out of range", f.InterAvg)
	}
	if f.AvgRowNNZ <= 0 {
		t.Errorf("avgRowNNZ %v", f.AvgRowNNZ)
	}
	if len(f.Vector()) != len(FeatureNames) {
		t.Error("feature vector length mismatch")
	}
	// Banded matrix: almost no inter-row overlap at distance, low variance.
	banded := workloads.Banded(workloads.Params{Rows: 1024, Cols: 1024, Density: 0.003, Seed: 1})
	fb := ExtractFeatures(banded)
	if fb.InterAvg >= f.InterAvg {
		t.Errorf("banded interAvg %v should be below block matrix %v", fb.InterAvg, f.InterAvg)
	}
}

func TestFeatureDeterminism(t *testing.T) {
	a := blockMatrix(6, 4)
	f1 := ExtractFeatures(a)
	f2 := ExtractFeatures(a)
	if f1 != f2 {
		t.Error("feature extraction not deterministic")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	for _, k := range CandidateKs {
		label, err := LabelForK(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := KForLabel(label)
		if err != nil || got != k {
			t.Errorf("round trip k=%d → label=%d → %d", k, label, got)
		}
	}
	if _, err := LabelForK(3); err == nil {
		t.Error("invalid k accepted")
	}
	if _, err := KForLabel(99); err == nil {
		t.Error("invalid label accepted")
	}
	if k, err := KForLabel(ClassNoReorder); err != nil || k != 0 {
		t.Error("no-reorder label wrong")
	}
	if NumClasses != 1+len(CandidateKs) {
		t.Error("NumClasses inconsistent with CandidateKs")
	}
}

func TestPipelineHeuristicGate(t *testing.T) {
	// Without a model: banded matrices should be skipped, block matrices
	// reordered.
	p := &Pipeline{Spectral: SpectralOptions{Seed: 2}}
	banded := workloads.Banded(workloads.Params{Rows: 2048, Cols: 2048, Density: 0.002, Seed: 2})
	res, err := p.Reorder(banded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reordered {
		t.Error("pipeline reordered a banded matrix")
	}
	if !res.Perm.IsIdentity() {
		t.Error("gated result is not identity")
	}

	block := blockMatrix(7, 8)
	res, err = p.Reorder(block)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reordered {
		t.Error("pipeline did not reorder a block matrix")
	}
	if res.Extra["k"] == 0 {
		t.Error("no k recorded for reordered matrix")
	}
}

func TestPipelineForceOptions(t *testing.T) {
	banded := workloads.Banded(workloads.Params{Rows: 512, Cols: 512, Density: 0.004, Seed: 3})
	p := &Pipeline{ForceReorder: true, Spectral: SpectralOptions{Seed: 1}}
	res, err := p.Reorder(banded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["k"] == 0 {
		t.Error("ForceReorder did not reorder")
	}
	p2 := &Pipeline{ForceK: 4, Spectral: SpectralOptions{Seed: 1}}
	res2, err := p2.Reorder(banded)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Extra["k"] != 4 {
		t.Errorf("ForceK: k = %v, want 4", res2.Extra["k"])
	}
}

// TestUntrainedGateServesOneK: without a model the gate serves UntrainedK
// to every matrix it approves, whatever its row count.
func TestUntrainedGateServesOneK(t *testing.T) {
	want, err := LabelForK(UntrainedK)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{200, 400, 800, 3000} {
		a := workloads.ScrambledBlock(workloads.Params{Rows: rows, Cols: rows, Density: 16 / float64(rows), Seed: 5})
		label, err := (&Pipeline{}).Decide(a)
		if err != nil {
			t.Fatal(err)
		}
		if label != want {
			t.Errorf("%d rows: gate label %d, want %d (k=%d)", rows, label, want, UntrainedK)
		}
	}
}

func TestFixedKAdapter(t *testing.T) {
	a := blockMatrix(8, 4)
	r := FixedK{K: 4, Opts: SpectralOptions{Seed: 1}}
	if r.Name() != "Bootes(k=4)" {
		t.Errorf("Name = %q", r.Name())
	}
	res, err := r.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Error(err)
	}
	if res.Extra["k"] != 4 {
		t.Error("k not recorded")
	}
}

func TestNamesAndModelPredictPath(t *testing.T) {
	if (Spectral{Opts: SpectralOptions{K: 4}}).Name() != "Spectral(k=4)" {
		t.Error("Spectral name wrong")
	}
	if (&Pipeline{}).Name() != "Bootes" {
		t.Error("Pipeline name wrong")
	}
	if (Recursive{}).Name() != "BootesRec(k=8)" {
		t.Error("Recursive name wrong")
	}
	// Decide with a trained model follows the model, not the heuristic.
	var samples []dtree.Sample
	for i := 0; i < 20; i++ {
		// Feature vector of the right arity; constant label 0 (no reorder).
		samples = append(samples, dtree.Sample{Features: make([]float64, len(FeatureNames)), Label: ClassNoReorder})
	}
	model, err := dtree.Train(samples, NumClasses, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Model: model, Spectral: SpectralOptions{Seed: 1}}
	a := blockMatrix(9, 8)
	label, err := p.Decide(a)
	if err != nil {
		t.Fatal(err)
	}
	if label != ClassNoReorder {
		t.Errorf("model label %d, want the trained constant 0", label)
	}
	res, err := p.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reordered {
		t.Error("model said no-reorder but the pipeline reordered")
	}
	// Model bytes are charged to the footprint.
	if res.FootprintBytes <= int64(a.Rows)*4 {
		t.Error("model bytes not accounted in footprint")
	}
}
