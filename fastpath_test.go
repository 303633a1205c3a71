package bootes

import (
	"slices"
	"testing"

	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// TestPlanKeyDistinguishesSimilarityClass: approximate and implicit plans
// can differ from the exact plan and must key separately from it.
func TestPlanKeyDistinguishesSimilarityClass(t *testing.T) {
	cache, err := OpenPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := smallMatrix(t, 7)
	base := Options{Seed: 1, ForceReorder: true, ForceK: 4, Similarity: SimExact, Cache: cache}
	if _, err := Plan(m, &base); err != nil {
		t.Fatal(err)
	}

	// Different tiers: must miss.
	for name, mode := range map[string]SimilarityMode{
		"approx":   SimApprox,
		"implicit": SimImplicit,
	} {
		o := base
		o.Similarity = mode
		p, err := Plan(m, &o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.FromCache {
			t.Errorf("%s plan wrongly hit the exact plan's cache entry", name)
		}
		if p.SimilarityMode != name {
			t.Errorf("%s plan reports tier %q", name, p.SimilarityMode)
		}
	}
}

// TestDefaultPlanIsImplicit: below the approximate row band the default
// options apply S matrix-free, so a default plan is bit for bit the plan an
// explicit SimImplicit request computes, reports that tier, and is served
// from the implicit request's cache entry.
func TestDefaultPlanIsImplicit(t *testing.T) {
	for name, m := range map[string]*Matrix{
		"sparse": smallMatrix(t, 7),
		"dense": workloads.ScrambledBlock(workloads.Params{
			Rows: 768, Cols: 768, Density: 0.03, Seed: 5, Groups: 8,
		}),
	} {
		t.Run(name, func(t *testing.T) {
			implicit := Options{Seed: 1, ForceReorder: true, ForceK: 8, Similarity: SimImplicit}
			def := Options{Seed: 1, ForceReorder: true, ForceK: 8}
			if got := EffectiveSimilarityMode(m, &def); got != SimImplicit {
				t.Fatalf("default options resolve to %v, want implicit", got)
			}
			want, err := Plan(m, &implicit)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Plan(m, &def)
			if err != nil {
				t.Fatal(err)
			}
			if got.SimilarityMode != "implicit" || got.K != want.K || !slices.Equal(got.Perm, want.Perm) {
				t.Fatalf("default plan (tier %q, k=%d) differs from the implicit plan (k=%d)",
					got.SimilarityMode, got.K, want.K)
			}

			cache, err := OpenPlanCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			implicit.Cache, def.Cache = cache, cache
			if _, err := Plan(m, &implicit); err != nil {
				t.Fatal(err)
			}
			hit, err := Plan(m, &def)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.FromCache || hit.SimilarityMode != "implicit" || !slices.Equal(hit.Perm, want.Perm) {
				t.Errorf("default plan after an implicit one: cached=%v tier=%q; want the implicit entry",
					hit.FromCache, hit.SimilarityMode)
			}
		})
	}
}

// TestApproxPlansValidWithCloseTraffic: on the corpus archetypes the
// LSH-sparsified tier must produce plans that pass the always-on verifier
// (valid bijections) and whose predicted B traffic is within 5% of the
// exact tier's plan.
func TestApproxPlansValidWithCloseTraffic(t *testing.T) {
	const cacheBytes = 32 << 10
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
			exact, err := Plan(m, &Options{Seed: 3, ForceReorder: true, ForceK: 8, Similarity: SimExact})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := Plan(m, &Options{Seed: 3, ForceReorder: true, ForceK: 8, Similarity: SimApprox})
			if err != nil {
				t.Fatal(err)
			}
			if approx.SimilarityMode != "approx" {
				t.Fatalf("approx plan ran tier %q", approx.SimilarityMode)
			}
			if err := approx.Perm.Validate(m.Rows); err != nil {
				t.Fatalf("approx plan permutation invalid: %v", err)
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
