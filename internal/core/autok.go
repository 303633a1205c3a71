package core

import (
	"context"
	"fmt"

	"bootes/internal/eigen"
	"bootes/internal/refine"
	"bootes/internal/sparse"
)

// Outcomes of EigengapK.
const (
	// AutoKSelected: the largest eigengap ratio cleared autoKMinGapRatio, and
	// its k is the selection.
	AutoKSelected = "selected"
	// AutoKFallbackAmbiguous: the spectrum showed no clear gap (uniform
	// random, single blob, a matrix of fewer than three rows), so nothing was
	// selected. A property of the matrix, not a failure.
	AutoKFallbackAmbiguous = "fallback-ambiguous"
	// AutoKFallbackImplicit: the S-kernel rule forms no S (an explicit
	// implicit request, or an auto request at simImplicitMinRows rows or with
	// S over the byte cap), so there is nothing to refine.
	AutoKFallbackImplicit = "fallback-implicit"
)

// The eigengap selector's fixed parameters.
const (
	// autoKMax bounds the selected cluster count and sizes the eigensolve at
	// autoKMax+1 eigenpairs.
	autoKMax = 64
	// autoKMinGapRatio is the ambiguity threshold: the best ratio
	// θ_k/θ_{k+1} must reach it for a selection. Calibrated so smooth
	// uniform-random spectra (best observed in-range ratio ≈1.11) fall back
	// while planted block structure (≥1.4) selects.
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

// EigengapK picks a cluster count for a by the largest eigengap of its
// refined similarity spectrum, beyond the fixed candidate set: it forms S
// with the kernel the S-kernel rule names (similarityKernel), refines it
// with refine.Apply, block-solves the top autoKMax+1 eigenpairs of the
// refined normalized similarity and scans k ∈ [2, autoKMax] for the largest
// ratio θ_k/θ_{k+1}. k and ratio are that ratio and where it lies; outcome
// is AutoKSelected when the ratio reaches autoKMinGapRatio, and one of the
// fallbacks otherwise (k and ratio are then 0 when no spectrum was solved).
//
// The refined spectrum only chooses k. Its eigenvectors make a poor
// ordering embedding — thresholding and diffusion erase the weak ties that
// guide within-cluster layout — so a caller orders rows with FixedK at the
// selected k and the same options. No planning path calls it: the SC
// experiment and the k-selection ablation do.
func EigengapK(ctx context.Context, a *sparse.CSR, opts SpectralOptions) (k int, ratio float64, outcome string, err error) {
	kmax := min(autoKMax, a.Rows-1)
	if kmax < 2 {
		return 0, 0, AutoKFallbackAmbiguous, nil
	}
	hub, colCounts := resolveHub(a)
	kernel := similarityKernel(a, opts, hub, colCounts)
	if kernel == SimImplicit {
		return 0, 0, AutoKFallbackImplicit, nil
	}
	sim, _, err := explicitSimilarity(ctx, a, kernel, hub, colCounts)
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: eigengap similarity: %w", err)
	}
	refined, err := refine.Apply(ctx, sim)
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: eigengap refinement: %w", err)
	}
	// Block subspace iteration, not Lanczos: a k-block matrix's normalized
	// similarity carries the eigenvalue 1 with multiplicity k, and a
	// single-vector Krylov space holds exactly one direction per distinct
	// eigenvalue — it would report a multiplicity of one regardless of k.
	// The block solver's oversampled random block resolves the degeneracy,
	// which here IS the quantity being measured.
	res, err := eigen.BlockLargestContext(ctx, eigen.NewNormalizedSimilarity(refined), opts.eigenOptions(kmax+1))
	if err != nil {
		return 0, 0, "", fmt.Errorf("core: eigengap spectrum solve: %w", err)
	}
	k, ratio, ok := selectEigengap(res.Values, 2, kmax, autoKStopEigenvalue, autoKMinGapRatio)
	if !ok {
		return k, ratio, AutoKFallbackAmbiguous, nil
	}
	return k, ratio, AutoKSelected, nil
}
