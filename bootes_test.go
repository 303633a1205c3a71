package bootes

import (
	"bytes"
	"strings"
	"testing"

	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

func demoMatrix(t *testing.T) *Matrix {
	t.Helper()
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 1024, Cols: 1024, Density: 0.01, Seed: 11, Groups: 8,
	})
}

func TestFromCOOAndNewMatrix(t *testing.T) {
	m, err := FromCOO(2, 3, []int32{0, 1, 0}, []int32{2, 0, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 4 { // duplicates summed
		t.Errorf("At(0,2) = %v, want 4", m.At(0, 2))
	}
	if _, err := FromCOO(2, 2, []int32{0}, []int32{0, 1}, nil); err == nil {
		t.Error("mismatched COO lengths accepted")
	}
	if _, err := NewMatrix(1, 1, []int64{0, 1}, []int32{0}, nil); err != nil {
		t.Errorf("NewMatrix: %v", err)
	}
}

func TestPlanReordersStructuredMatrix(t *testing.T) {
	m := demoMatrix(t)
	plan, err := Plan(m, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reordered {
		t.Fatal("plan did not reorder a scrambled block matrix")
	}
	if plan.K == 0 {
		t.Error("no k recorded")
	}
	if err := plan.Perm.Validate(m.Rows); err != nil {
		t.Error(err)
	}
	// The exact k is legitimately seed-dependent — the sweep ranks candidates
	// by modeled traffic, and ladder changes may shift the winner between
	// equally good candidates. Tier-1 pins the traffic
	// contract instead of the chosen k: the plan must strictly beat the
	// unordered baseline on the model it was selected by.
	base, err := trafficmodel.EstimateB(m, m, 64<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	est, err := trafficmodel.EstimateBWithPerm(m, m, plan.Perm, 64<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if est.BTraffic >= base.BTraffic {
		t.Errorf("reordered plan predicts %d bytes, baseline %d — no improvement",
			est.BTraffic, base.BTraffic)
	}
	pm, err := plan.Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := plan.Restore(pm)
	if err != nil {
		t.Fatal(err)
	}
	if !patternEq(m, back) {
		t.Error("Apply+Restore did not round-trip")
	}
}

func patternEq(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for p := range ra {
			if ra[p] != rb[p] {
				return false
			}
		}
	}
	return true
}

func TestPlanGateSkipsBanded(t *testing.T) {
	m := workloads.Banded(workloads.Params{Rows: 2048, Cols: 2048, Density: 0.003, Seed: 5})
	plan, err := Plan(m, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reordered {
		t.Error("gate should skip a banded matrix")
	}
	// ForceReorder overrides the gate.
	plan, err = Plan(m, &Options{Seed: 1, ForceReorder: true, ForceK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reordered || plan.K != 4 {
		t.Errorf("ForceReorder/ForceK ignored: %+v", plan)
	}
}

func TestBaselines(t *testing.T) {
	m := demoMatrix(t)
	for _, b := range []Baseline{BaselineOriginal, BaselineGamma, BaselineGraph, BaselineHier} {
		plan, err := ReorderBaseline(m, b, 1)
		if err != nil {
			t.Fatalf("baseline %d: %v", b, err)
		}
		if err := plan.Perm.Validate(m.Rows); err != nil {
			t.Errorf("baseline %d: %v", b, err)
		}
	}
	if _, err := ReorderBaseline(m, Baseline(99), 1); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestSimulateAndReorderingReducesTraffic(t *testing.T) {
	m := demoMatrix(t)
	base, err := Simulate(Flexagon, m, m)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalBytes() < base.CompulsoryBytes {
		t.Error("traffic below compulsory")
	}
	if base.Flops <= 0 || base.OutputNNZ <= 0 || base.Seconds <= 0 {
		t.Error("missing simulation counters")
	}
	if _, err := Simulate(Accelerator(9), m, m); err == nil {
		t.Error("unknown accelerator accepted")
	}
	if Flexagon.String() != "Flexagon" || GAMMA.String() != "GAMMA" || Trapezoid.String() != "Trapezoid" {
		t.Error("accelerator names wrong")
	}
}

func TestSpGEMMPublic(t *testing.T) {
	a, err := FromCOO(2, 2, []int32{0, 1}, []int32{0, 1}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := SpGEMM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 4 || c.At(1, 1) != 9 {
		t.Errorf("SpGEMM wrong: %v", c.Dense())
	}
}

func TestMatrixMarketPublicRoundTrip(t *testing.T) {
	m := demoMatrix(t)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !patternEq(m, got) {
		t.Error("round trip mismatch")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestModelEncodeLoad(t *testing.T) {
	// A tiny training run exercises the full public training path.
	model, stats, err := TrainModel(0.02, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CorpusSize == 0 || stats.ModelBytes == 0 {
		t.Errorf("stats incomplete: %+v", stats)
	}
	data, err := model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SizeBytes() == 0 {
		t.Error("loaded model empty")
	}
	// A loaded model is usable in Plan.
	m := demoMatrix(t)
	if _, err := Plan(m, &Options{Model: back, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel([]byte("{")); err == nil {
		t.Error("bad model accepted")
	}
}

func TestCandidateKsCopy(t *testing.T) {
	ks := CandidateKs()
	if len(ks) != 5 || ks[0] != 2 || ks[4] != 32 {
		t.Errorf("CandidateKs = %v", ks)
	}
	ks[0] = 99
	if CandidateKs()[0] != 2 {
		t.Error("CandidateKs exposes internal state")
	}
}

func TestApplySymmetricAndBinaryIO(t *testing.T) {
	m := demoMatrix(t)
	plan, err := Plan(m, &Options{Seed: 4, ForceReorder: true, ForceK: 8})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := plan.ApplySymmetric(m)
	if err != nil {
		t.Fatal(err)
	}
	// (PAPᵀ)[i][j] = A[perm[i]][perm[j]] spot check.
	perm := plan.Perm
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if sym.Has(i, j) != m.Has(int(perm[i]), int(perm[j])) {
				t.Fatalf("symmetric permute mismatch at (%d,%d)", i, j)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !patternEq(m, got) {
		t.Error("binary round trip mismatch")
	}
}
