package core

import (
	"context"
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// setSelectorThresholds pins the SimAuto selector to small-row boundaries so
// the tier progression is testable without building huge matrices.
func setSelectorThresholds(t *testing.T, approx, implicit int, bytesCap int64) {
	t.Helper()
	oa, oi, oc := simApproxMinRows, simImplicitMinRows, simExplicitBytesCap
	t.Cleanup(func() {
		simApproxMinRows, simImplicitMinRows, simExplicitBytesCap = oa, oi, oc
	})
	simApproxMinRows, simImplicitMinRows, simExplicitBytesCap = approx, implicit, bytesCap
}

func selectorMatrix(rows int) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: rows, Cols: rows, Density: 0.05, Seed: 11, Groups: 4,
	})
}

// eigengapKernel runs the eigengap selector, the S-kernel rule's one caller,
// over a and returns the kernel that formed its S, read from
// bootes_similarity_mode_total; a selection that forms no S (the implicit
// fallback) returns SimImplicit.
func eigengapKernel(t *testing.T, a *sparse.CSR, opts SpectralOptions) SimilarityMode {
	t.Helper()
	reg := obs.NewRegistry()
	_, _, outcome, err := EigengapK(obs.WithRegistry(context.Background(), reg), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outcome == AutoKFallbackImplicit {
		return SimImplicit
	}
	for _, f := range reg.Snapshot() {
		if f.Name == obs.SimilarityModeName && len(f.Series) == 1 && f.Series[0].Value == 1 {
			label := strings.TrimSuffix(strings.TrimPrefix(f.Series[0].Labels, `mode="`), `"`)
			if mode, err := ParseSimilarityMode(label); err == nil {
				return mode
			}
		}
	}
	t.Fatalf("%d rows: outcome %s formed no single counted S", a.Rows, outcome)
	return SimAuto
}

// TestParseSimilarityMode: every accepted name round-trips through String,
// the empty string means auto, and a retired tier name is rejected with an
// error that lists the accepted ones.
func TestParseSimilarityMode(t *testing.T) {
	for _, mode := range []SimilarityMode{SimAuto, SimExact, SimApprox, SimImplicit} {
		got, err := ParseSimilarityMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseSimilarityMode(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if got, err := ParseSimilarityMode(""); err != nil || got != SimAuto {
		t.Errorf(`ParseSimilarityMode("") = %v, %v; want SimAuto`, got, err)
	}
	_, err := ParseSimilarityMode("bitset")
	if err == nil {
		t.Fatal("ParseSimilarityMode accepted bitset")
	}
	for _, name := range []string{"auto", "exact", "approx", "implicit"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestSimilaritySelectorThresholds pins the two SimAuto rules. The operator
// rule gives the tier a fixed-k pass runs: matrix-free except in the approx
// row band. The S-kernel rule gives the kernel the eigengap selector
// materializes S with: exact below the band, approx in it, and no S at all
// (implicit) from the implicit row threshold or over the byte cap.
func TestSimilaritySelectorThresholds(t *testing.T) {
	setSelectorThresholds(t, 128, 256, 1<<28)
	kernel := func(a *sparse.CSR) SimilarityMode { return eigengapKernel(t, a, SpectralOptions{Seed: 1}) }
	for _, tc := range []struct {
		rows           int
		operator, sKer SimilarityMode
	}{
		{32, SimImplicit, SimExact},
		{64, SimImplicit, SimExact},
		{127, SimImplicit, SimExact},
		{128, SimApprox, SimApprox},
		{255, SimApprox, SimApprox},
		{256, SimImplicit, SimImplicit},
	} {
		m := selectorMatrix(tc.rows)
		if got := EffectiveSimilarityMode(m, SpectralOptions{}); got != tc.operator {
			t.Errorf("auto operator at %d rows = %v, want %v", tc.rows, got, tc.operator)
		}
		if got := kernel(m); got != tc.sKer {
			t.Errorf("eigengap S kernel at %d rows = %v, want %v", tc.rows, got, tc.sKer)
		}
	}

	// The byte cap refuses to materialize S even below the approximate row
	// threshold; the operator rule never consults it.
	setSelectorThresholds(t, 1<<30, 1<<30, 1)
	if got := kernel(selectorMatrix(96)); got != SimImplicit {
		t.Errorf("byte-capped eigengap S kernel = %v, want SimImplicit", got)
	}
	if got := EffectiveSimilarityMode(selectorMatrix(96), SpectralOptions{}); got != SimImplicit {
		t.Errorf("byte-capped auto operator = %v, want SimImplicit", got)
	}
}

func TestSimilaritySelectorExplicitWins(t *testing.T) {
	setSelectorThresholds(t, 128, 256, 1<<28)
	m := selectorMatrix(300) // auto would say implicit
	for _, mode := range []SimilarityMode{SimExact, SimApprox, SimImplicit} {
		opts := SpectralOptions{Seed: 1, Similarity: mode}
		if got := EffectiveSimilarityMode(m, opts); got != mode {
			t.Errorf("explicit %v resolved to %v", mode, got)
		}
		if got := eigengapKernel(t, m, opts); got != mode {
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

// TestLadderRungOrder: every request descends the same rungs whatever tier
// it runs, and the rungs after the first run the implicit operator.
func TestLadderRungOrder(t *testing.T) {
	want := []string{"requested", "retry-loose", "fixed-k2"}
	for _, mode := range []SimilarityMode{SimAuto, SimExact, SimApprox, SimImplicit} {
		ladder := buildLadder(SpectralOptions{K: 8, Similarity: mode})
		var names []string
		for _, r := range ladder {
			names = append(names, r.name)
		}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("%v ladder = %v, want %v", mode, names, want)
			continue
		}
		if ladder[0].opts.Similarity != mode {
			t.Errorf("%v ladder: requested rung runs tier %v", mode, ladder[0].opts.Similarity)
		}
		for _, r := range ladder[1:] {
			if r.opts.Similarity != SimImplicit {
				t.Errorf("%v ladder: %s rung runs tier %v, want implicit", mode, r.name, r.opts.Similarity)
			}
		}
	}
}
