package core_test

import (
	"context"
	"testing"

	"bootes/internal/core"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// TestApproxPlansValidWithCloseTraffic: on the corpus archetypes the
// LSH-sparsified tier must produce plans that pass the always-on verifier
// (valid bijections) and whose predicted B traffic is within 5% of the
// exact tier's plan.
func TestApproxPlansValidWithCloseTraffic(t *testing.T) {
	const cacheBytes = 32 << 10
	plan := func(t *testing.T, m *sparse.CSR, mode core.SimilarityMode) *reorder.Result {
		t.Helper()
		p := &core.Pipeline{
			Spectral:     core.SpectralOptions{Seed: 3, Similarity: mode},
			ForceReorder: true,
			ForceK:       8,
		}
		res, err := p.ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		res, vs := planverify.VerifyResult(planverify.SitePlan, m, res, nil)
		if len(vs) > 0 {
			t.Fatalf("%v plan failed verification: %v", mode, vs)
		}
		return res
	}
	for _, tc := range []struct {
		name string
		arch workloads.Archetype
	}{
		{"scrambled-block", workloads.ArchScrambledBlock},
		{"knn", workloads.ArchKNN},
		{"power-law", workloads.ArchPowerLaw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := workloads.Generate(tc.arch, workloads.Params{
				Rows: 1024, Cols: 1024, Density: 0.01, Seed: 9, Groups: 8,
			})
			exact := plan(t, m, core.SimExact)
			approx := plan(t, m, core.SimApprox)
			if approx.SimilarityMode != "approx" {
				t.Fatalf("approx plan ran tier %q", approx.SimilarityMode)
			}
			if approx.Degraded {
				t.Fatalf("approx plan degraded: %s", approx.DegradedReason)
			}

			// Self-product traffic: C = A·Aᵀ reuses rows of A as B.
			et, err := trafficmodel.EstimateBWithPerm(m, m, exact.Perm, cacheBytes, 12)
			if err != nil {
				t.Fatal(err)
			}
			at, err := trafficmodel.EstimateBWithPerm(m, m, approx.Perm, cacheBytes, 12)
			if err != nil {
				t.Fatal(err)
			}
			if et.BTraffic == 0 {
				t.Fatal("exact plan predicts zero traffic")
			}
			ratio := float64(at.BTraffic) / float64(et.BTraffic)
			t.Logf("B traffic: exact=%d approx=%d ratio=%.4f", et.BTraffic, at.BTraffic, ratio)
			if ratio > 1.05 {
				t.Errorf("approx plan predicts %.1f%% more traffic than exact (cap 5%%)",
					(ratio-1)*100)
			}
		})
	}
}
