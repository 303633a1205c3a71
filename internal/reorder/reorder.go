// Package reorder defines the row-reordering interface shared by Bootes and
// the paper's three baselines, and implements those baselines:
//
//   - Original — the identity (no reordering).
//   - Gamma — GAMMA's windowed greedy priority-queue algorithm (paper Alg. 1).
//   - Graph — the FSpGEMM weighted-similarity-graph greedy walk (paper Alg. 2).
//   - Hier — LSH-seeded agglomerative hierarchical clustering (paper Alg. 3).
//
// Every reorderer reports its preprocessing wall time and a deterministic
// modeled peak memory footprint, the two quantities compared in the paper's
// scalability study (Figure 5).
package reorder

import (
	"time"

	"bootes/internal/sparse"
)

// Result is the outcome of a reordering pass.
type Result struct {
	// Perm maps new row position to original row (perm[new] = old).
	Perm sparse.Permutation
	// PreprocessTime is the wall time spent computing the permutation.
	PreprocessTime time.Duration
	// FootprintBytes is the modeled peak host memory the algorithm's data
	// structures require (deterministic; excludes the input matrix itself).
	FootprintBytes int64
	// Reordered reports whether Perm differs from the identity. Reorderers
	// with a cost gate (Bootes) set this false when they decline to reorder.
	Reordered bool
	// Degraded reports that the reorderer could not run its preferred
	// configuration and fell down its degradation ladder (retried
	// eigensolve, fixed small k, or identity). The plan is still valid;
	// DegradedReason records the rung and why. Baselines never set it.
	Degraded bool
	// DegradedReason is the human-readable trail of degradation decisions,
	// empty when Degraded is false.
	DegradedReason string
	// SimilarityMode names the similarity tier the spectral pass ran
	// ("exact", "approx", "implicit"). Empty when no spectral pass ran
	// (gate decline, identity fallback, baselines).
	SimilarityMode string
	// AutoK is set by no planner and read by nothing: it held the outcome
	// of the retired auto-k planning rung. e2ebench's per-layer replay
	// still copies it, so it goes with that code.
	AutoK string
	// Extra carries algorithm-specific diagnostics (e.g. Lanczos matvec
	// count, chosen k) for the experiment reports.
	Extra map[string]float64
}

// Reorderer computes a row permutation of matrix A intended to improve the
// reuse of rows of B during row-wise-product SpGEMM.
type Reorderer interface {
	// Name identifies the algorithm in reports ("Bootes", "Gamma", ...).
	Name() string
	// Reorder computes the permutation for the pattern of a.
	Reorder(a *sparse.CSR) (*Result, error)
}

// Original is the no-reordering baseline.
type Original struct{}

// Name implements Reorderer.
func (Original) Name() string { return "Original" }

// Reorder returns the identity permutation.
func (Original) Reorder(a *sparse.CSR) (*Result, error) {
	start := time.Now()
	perm := sparse.IdentityPerm(a.Rows)
	return &Result{
		Perm:           perm,
		PreprocessTime: time.Since(start),
		FootprintBytes: int64(a.Rows) * 4,
		Reordered:      false,
		Extra:          map[string]float64{},
	}, nil
}
