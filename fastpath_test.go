package bootes

import (
	"slices"
	"testing"

	"bootes/internal/workloads"
)

// TestDefaultPlanIsImplicit: below the approximate row band the row count
// picks the implicit operator, so a plan and its cache hit both report that
// tier, and the hit replays the plan bit for bit.
func TestDefaultPlanIsImplicit(t *testing.T) {
	for name, m := range map[string]*Matrix{
		"sparse": smallMatrix(t, 7),
		"dense": workloads.ScrambledBlock(workloads.Params{
			Rows: 768, Cols: 768, Density: 0.03, Seed: 5, Groups: 8,
		}),
	} {
		t.Run(name, func(t *testing.T) {
			cache, err := OpenPlanCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Seed: 1, ForceReorder: true, ForceK: 8, Cache: cache}
			want, err := Plan(m, &o)
			if err != nil {
				t.Fatal(err)
			}
			if want.FromCache || want.SimilarityMode != "implicit" {
				t.Fatalf("default plan: cached=%v tier=%q; want a computed implicit plan",
					want.FromCache, want.SimilarityMode)
			}
			hit, err := Plan(m, &o)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.FromCache || hit.SimilarityMode != "implicit" || !slices.Equal(hit.Perm, want.Perm) {
				t.Errorf("repeat plan: cached=%v tier=%q; want the implicit entry",
					hit.FromCache, hit.SimilarityMode)
			}
		})
	}
}
