package core

import (
	"context"
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// setSelectorThresholds pins the SimAuto selector to small-row boundaries so
// the tier progression is testable without building huge matrices.
func setSelectorThresholds(t *testing.T, bitset, approx, implicit int, bytesCap int64) {
	t.Helper()
	ob, oa, oi, oc := simBitsetMinRows, simApproxMinRows, simImplicitMinRows, simExplicitBytesCap
	t.Cleanup(func() {
		simBitsetMinRows, simApproxMinRows, simImplicitMinRows, simExplicitBytesCap = ob, oa, oi, oc
	})
	simBitsetMinRows, simApproxMinRows, simImplicitMinRows, simExplicitBytesCap = bitset, approx, implicit, bytesCap
}

func selectorMatrix(rows int) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: rows, Cols: rows, Density: 0.05, Seed: 11, Groups: 4,
	})
}

// TestSimilaritySelectorThresholds pins the two SimAuto rules. The operator
// rule gives the tier a fixed-k pass runs: matrix-free except in the approx
// row band. The S-kernel rule gives the kernel auto-k materializes S with:
// exact, bitset by rows and density, approx in the band, and no S at all
// (implicit) from the implicit row threshold or over the byte cap.
func TestSimilaritySelectorThresholds(t *testing.T) {
	setSelectorThresholds(t, 64, 128, 256, 1<<28)
	kernel := func(a *sparse.CSR) SimilarityMode {
		hub, colCounts := resolveHub(a)
		return similarityKernel(a, SpectralOptions{}, hub, colCounts)
	}
	for _, tc := range []struct {
		rows           int
		operator, sKer SimilarityMode
	}{
		{32, SimImplicit, SimExact},
		{64, SimImplicit, SimBitset},
		{127, SimImplicit, SimBitset},
		{128, SimApprox, SimApprox},
		{255, SimApprox, SimApprox},
		{256, SimImplicit, SimImplicit},
	} {
		m := selectorMatrix(tc.rows)
		if got := EffectiveSimilarityMode(m, SpectralOptions{}); got != tc.operator {
			t.Errorf("auto operator at %d rows = %v, want %v", tc.rows, got, tc.operator)
		}
		if got := kernel(m); got != tc.sKer {
			t.Errorf("auto-k S kernel at %d rows = %v, want %v", tc.rows, got, tc.sKer)
		}
	}

	// In the bitset row range, a matrix too sparse to fill the packed words
	// (density below 1/64) stays on the merge kernel.
	sparse64 := workloads.ScrambledBlock(workloads.Params{
		Rows: 64, Cols: 2048, Density: 0.002, Seed: 11, Groups: 4,
	})
	if got := kernel(sparse64); got != SimExact {
		t.Errorf("auto-k S kernel for sub-1/64-density matrix = %v, want SimExact", got)
	}

	// The byte cap refuses to materialize S even below the approximate row
	// threshold; the operator rule never consults it.
	setSelectorThresholds(t, 64, 1<<30, 1<<30, 1)
	if got := kernel(selectorMatrix(96)); got != SimImplicit {
		t.Errorf("byte-capped auto-k S kernel = %v, want SimImplicit", got)
	}
	if got := EffectiveSimilarityMode(selectorMatrix(96), SpectralOptions{}); got != SimImplicit {
		t.Errorf("byte-capped auto operator = %v, want SimImplicit", got)
	}
}

func TestSimilaritySelectorExplicitWins(t *testing.T) {
	setSelectorThresholds(t, 64, 128, 256, 1<<28)
	m := selectorMatrix(300) // auto would say implicit
	hub, colCounts := resolveHub(m)
	for _, mode := range []SimilarityMode{SimExact, SimBitset, SimApprox, SimImplicit} {
		opts := SpectralOptions{Similarity: mode}
		if got := EffectiveSimilarityMode(m, opts); got != mode {
			t.Errorf("explicit %v resolved to %v", mode, got)
		}
		if got := similarityKernel(m, opts, hub, colCounts); got != mode {
			t.Errorf("explicit %v picked S kernel %v", mode, got)
		}
	}
}

// modeFingerprint runs one spectral pass with the given similarity mode and
// returns the determinism-contract artifacts.
func modeFingerprint(t *testing.T, a *sparse.CSR, mode SimilarityMode, seed int64) spectralFingerprint {
	t.Helper()
	res, err := Spectral{Opts: SpectralOptions{K: 8, Seed: seed, Similarity: mode}}.Reorder(a)
	if err != nil {
		t.Fatalf("Reorder(%v): %v", mode, err)
	}
	if res.Similarity != mode {
		t.Fatalf("result reports tier %v, want %v", res.Similarity, mode)
	}
	return spectralFingerprint{perm: res.Perm, assign: res.Assign, inertia: res.Inertia}
}

// TestBitsetPlanMatchesExactAcrossWorkers: the bitset kernel is an exact
// drop-in — whole-pipeline results must be bit-identical to the merge kernel
// at every worker count.
func TestBitsetPlanMatchesExactAcrossWorkers(t *testing.T) {
	for name, a := range equivWorkloads(5) {
		ref := modeFingerprint(t, a, SimExact, 7)
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			got := modeFingerprint(t, a, SimBitset, 7)
			parallel.SetWorkers(prev)
			if !sameInt32(ref.perm, got.perm) || !sameInt32(ref.assign, got.assign) || ref.inertia != got.inertia {
				t.Errorf("%s: bitset plan at %d workers diverges from exact", name, w)
			}
		}
	}
}

// TestApproxPlanDeterministicAcrossWorkers: the approximate tier makes no
// bit-identity promise versus exact, but it must agree with itself for any
// worker count.
func TestApproxPlanDeterministicAcrossWorkers(t *testing.T) {
	for name, a := range equivWorkloads(6) {
		prev := parallel.SetWorkers(1)
		ref := modeFingerprint(t, a, SimApprox, 7)
		parallel.SetWorkers(prev)
		for _, w := range []int{2, 8} {
			prev := parallel.SetWorkers(w)
			got := modeFingerprint(t, a, SimApprox, 7)
			parallel.SetWorkers(prev)
			if !sameInt32(ref.perm, got.perm) || !sameInt32(ref.assign, got.assign) || ref.inertia != got.inertia {
				t.Errorf("%s: approx plan at %d workers diverges from workers=1", name, w)
			}
		}
	}
}

// TestApproxFaultDegradesToImplicit: a failing sparsifier must walk the
// ladder to the implicit rung — a real reordering, not the identity floor.
func TestApproxFaultDegradesToImplicit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.LSHSparsifyFail, faultinject.Always())
	a := smallMatrix(3)
	p := &Pipeline{ForceReorder: true, ForceK: 8,
		Spectral: SpectralOptions{Seed: 3, Similarity: SimApprox}}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("plan errored instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("failing sparsifier did not mark the plan Degraded")
	}
	if !strings.Contains(res.DegradedReason, "sparsify") {
		t.Errorf("DegradedReason %q does not name the sparsifier fault", res.DegradedReason)
	}
	if strings.Contains(res.DegradedReason, "fell back to identity") {
		t.Errorf("plan fell to the identity floor: %q", res.DegradedReason)
	}
	if res.SimilarityMode != "implicit" {
		t.Errorf("degraded plan ran tier %q, want implicit", res.SimilarityMode)
	}
	if !res.Reordered {
		t.Error("implicit rung should still produce a real reordering")
	}
}

// TestLadderRungOrder: the approx rung exists only for exact-class requests,
// and no rung repeats the tier the request already resolves to.
func TestLadderRungOrder(t *testing.T) {
	names := func(ladder []rung) []string {
		var out []string
		for _, r := range ladder {
			out = append(out, r.name)
		}
		return out
	}
	exact := names(buildLadder(SpectralOptions{K: 8}, SimExact))
	wantExact := []string{"requested", "approx-similarity", "implicit-similarity", "retry-loose", "fixed-k2"}
	if strings.Join(exact, ",") != strings.Join(wantExact, ",") {
		t.Errorf("exact ladder = %v, want %v", exact, wantExact)
	}
	approx := names(buildLadder(SpectralOptions{K: 8, Similarity: SimApprox}, SimApprox))
	wantApprox := []string{"requested", "implicit-similarity", "retry-loose", "fixed-k2"}
	if strings.Join(approx, ",") != strings.Join(wantApprox, ",") {
		t.Errorf("approx ladder = %v, want %v", approx, wantApprox)
	}
	impl := names(buildLadder(SpectralOptions{K: 8, Similarity: SimImplicit}, SimImplicit))
	wantImpl := []string{"requested", "retry-loose", "fixed-k2"}
	if strings.Join(impl, ",") != strings.Join(wantImpl, ",") {
		t.Errorf("implicit ladder = %v, want %v", impl, wantImpl)
	}

	// The inserted approx rung must actually request the approximate tier.
	ladder := buildLadder(SpectralOptions{K: 8}, SimBitset)
	if ladder[1].opts.Similarity != SimApprox {
		t.Errorf("approx rung requests tier %v", ladder[1].opts.Similarity)
	}
}
