package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bootes/internal/eigen"
	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/refine"
	"bootes/internal/sparse"
)

// Auto-k outcome labels, the prefix of Result.AutoK and the `outcome` label
// of bootes_autok_total. AutoKOutcomeLabel extracts them from a full outcome
// string (which may carry a ": detail" suffix).
const (
	// AutoKSelected: the eigengap was unambiguous and the selected k was used.
	AutoKSelected = "selected"
	// AutoKFallbackAmbiguous: the spectrum showed no clear gap (uniform
	// random, single blob, too-small matrix); the tree's fixed k was used.
	// Not a degradation — an ambiguous spectrum is a property of the matrix.
	AutoKFallbackAmbiguous = "fallback-ambiguous"
	// AutoKFallbackImplicit: the S-kernel rule forms no S (an explicit
	// implicit request, or an auto request at simImplicitMinRows rows or with
	// S over the byte cap), so there is nothing to refine; the tree's fixed k
	// was used.
	AutoKFallbackImplicit = "fallback-implicit"
	// AutoKDegraded: the auto-k attempt itself failed (eigensolve, refinement,
	// contained panic, a passed deadline) and planning degraded to the fixed-k
	// ladder. Recorded in Degraded/DegradedReason as well.
	AutoKDegraded = "degraded"
)

// AutoKOutcomeLabel reduces a full auto-k outcome string ("selected: k=24
// gap-ratio=3.10") to its label ("selected") for metrics.
func AutoKOutcomeLabel(outcome string) string {
	if i := strings.IndexByte(outcome, ':'); i >= 0 {
		return outcome[:i]
	}
	return outcome
}

// Eigengap auto-k runs, when Pipeline.AutoK is set and no ForceK override
// is present, before the fixed-k degradation ladder: materialize the explicit
// similarity matrix, refine it with refine.Apply, solve the
// top-(autoKMax+1) spectrum of the refined normalized similarity, and pick k
// at the largest eigengap ratio θ_k/θ_{k+1} within [2, autoKMax]. An
// ambiguous spectrum falls back to the decision tree's fixed k (not a
// degradation); a failed attempt degrades to the fixed-k ladder with the
// reason recorded.
const (
	// autoKMax bounds the selected cluster count and sizes the eigensolve at
	// autoKMax+1 eigenpairs.
	autoKMax = 64
	// autoKMinGapRatio is the ambiguity threshold: the best ratio
	// θ_k/θ_{k+1} must reach it or the selection falls back to the tree's k.
	// Calibrated so smooth uniform-random spectra (best observed in-range
	// ratio ≈1.11) fall back while planted block structure (≥1.4) selects.
	autoKMinGapRatio = 1.25
	// autoKStopEigenvalue is the noise floor: eigenvalues below it terminate
	// the gap scan (the spectrum is exhausted) and clamp the ratio
	// denominator. It is the SpectralCluster stop_eigenvalue.
	autoKStopEigenvalue = 1e-2
)

// selectEigengap scans k ∈ [kmin, kmax] for the largest eigengap ratio
// θ_k/θ_{k+1} over the descending spectrum values. Eigenvalues below stop
// terminate the scan (no more cluster structure) and clamp the denominator so
// noise-floor eigenvalues cannot inflate ratios without bound. ok reports
// whether the best ratio reached minRatio.
func selectEigengap(values []float64, kmin, kmax int, stop, minRatio float64) (bestK int, bestRatio float64, ok bool) {
	if kmax > len(values)-1 {
		kmax = len(values) - 1
	}
	for k := kmin; k <= kmax; k++ {
		hi, lo := values[k-1], values[k]
		if hi < stop {
			break
		}
		if lo < stop {
			lo = stop
		}
		ratio := hi / lo
		if ratio > bestRatio {
			bestRatio, bestK = ratio, k
		}
	}
	return bestK, bestRatio, bestK >= kmin && bestRatio >= minRatio
}

// attemptAutoK runs the auto-k rung with panic containment. Outcomes:
//
//   - (result, "selected: ...", nil): the eigengap chose k and clustering
//     succeeded with it.
//   - (nil, "fallback-...", nil): auto-k declined (ambiguous spectrum,
//     implicit similarity tier, too-small matrix); the caller proceeds with
//     the tree's fixed k. Not a degradation.
//   - (nil, "", err): the attempt failed; the caller degrades to the fixed-k
//     ladder and records the reason.
func (p *Pipeline) attemptAutoK(ctx context.Context, a *sparse.CSR, base SpectralOptions) (sr *SpectralResult, outcome string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sr, outcome, err = nil, "", fmt.Errorf("%w: %v", ErrInternalPanic, rec)
		}
	}()
	start := time.Now()
	n := a.Rows
	kmax := min(autoKMax, n-1)
	if kmax < 2 {
		return nil, fmt.Sprintf("%s: matrix too small for eigengap selection (n=%d)", AutoKFallbackAmbiguous, n), nil
	}

	hub, colCounts := resolveHub(a)
	kernel := similarityKernel(a, base, hub, colCounts)
	if kernel == SimImplicit {
		return nil, AutoKFallbackImplicit + ": refinement needs an explicit similarity matrix", nil
	}

	// Materialize the explicit similarity through the shared tier dispatch
	// (refinement needs the CSR itself, not just an operator) and refine it.
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	sim, simBytes, err := explicitSimilarity(ctx, a, kernel, hub, colCounts)
	if err != nil {
		return nil, "", fmt.Errorf("core: auto-k similarity: %w", err)
	}
	refined, err := refine.Apply(ctx, sim)
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k refinement: %w", err)
	}
	simBytes += refined.ModeledBytes()
	endSimilarity()

	// One spectrum solve sized for the largest admissible k; it exists only
	// to locate the eigengap (the ordering embedding is solved separately
	// below, over the raw similarity).
	if faultinject.Fire(faultinject.AutoKNoConverge) {
		return nil, "", fmt.Errorf("core: auto-k spectrum solve: %w", eigen.ErrNoConverge)
	}
	// Block subspace iteration, not Lanczos: a k-block matrix's normalized
	// similarity carries the eigenvalue 1 with multiplicity k, and a
	// single-vector Krylov space holds exactly one direction per distinct
	// eigenvalue — it would report a multiplicity of one regardless of k.
	// The block solver's oversampled random block resolves the degeneracy,
	// which here IS the quantity being measured.
	eo := base.eigenOptions(kmax + 1)
	endEigensolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEigensolve()
	res, err := eigen.BlockLargestContext(ctx, eigen.NewNormalizedSimilarity(refined), eo)
	endEigensolve()
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k spectrum solve: %w", err)
	}

	k, ratio, ok := selectEigengap(res.Values, 2, kmax, autoKStopEigenvalue, autoKMinGapRatio)
	if !ok {
		return nil, fmt.Sprintf("%s: max eigengap ratio %.3f at k=%d below %.3f",
			AutoKFallbackAmbiguous, ratio, k, autoKMinGapRatio), nil
	}

	// The refined operator's job ends at selecting k. Its eigenvectors make
	// a poor ordering embedding — thresholding and diffusion erase the weak
	// ties that guide within-cluster layout — so the ordering comes from the
	// shared spectral core over the operator a fixed-k plan at the selected
	// k applies: embed(k) → assign(k), exactly that plan's pass, so both
	// give the same permutation. The two tiers differ only under SimAuto
	// below simApproxMinRows, where that operator is matrix-free: S has
	// served its purpose and the operator is built from a as that plan
	// builds it. The similarity counter records the kernel that formed S,
	// once per attempt. Auto-k therefore costs one block solve for the
	// spectrum plus one Lanczos solve at the selected k.
	mode := EffectiveSimilarityMode(a, base)
	var op eigen.Operator
	if mode == kernel {
		op = eigen.NewNormalizedSimilarity(sim)
	} else {
		op = eigen.NewImplicitSimilarityCappedWithCounts(a, hub, colCounts)
	}
	raw, err := embed(ctx, op, base, k)
	if err != nil {
		return nil, "", err
	}
	sr, err = assign(ctx, raw.Vectors, n, k, base, true)
	if err != nil {
		return nil, "", err
	}
	sr.Eigenvalues = res.Values
	sr.MatVecs = res.MatVecs + raw.MatVecs
	sr.Similarity = mode
	sr.PreprocessTime = time.Since(start)
	sr.FootprintBytes = spectralFootprint(n, k, simBytes, eo)
	return sr, fmt.Sprintf("%s: k=%d gap-ratio=%.2f", AutoKSelected, k, ratio), nil
}
