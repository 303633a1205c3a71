package core

import (
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/lsh"
	"bootes/internal/sparse"
)

// Budget caps the resources one planning pass may consume. The zero value
// imposes no limits. Budgets never cause planning to fail: exceeding one
// makes the pipeline fall down its degradation ladder (lower-memory operator
// first, identity last) and record why in the result.
type Budget struct {
	// MaxWallClock bounds the planning wall time. When it expires the
	// pipeline abandons in-flight work cooperatively and returns an identity
	// plan marked Degraded, rather than an error: the caller's own context
	// still distinguishes genuine cancellation.
	MaxWallClock time.Duration
	// MaxFootprintBytes bounds the modeled peak host memory of the spectral
	// pass. Candidate configurations whose upper-bound estimate exceeds it
	// are skipped *before* any similarity storage is allocated.
	MaxFootprintBytes int64
}

// memoryExceeded reports whether a configuration with the given modeled
// footprint estimate must be skipped. The fault-injection point lets tests
// force a breach without constructing a matrix that genuinely blows a cap.
func (b Budget) memoryExceeded(estimate int64) bool {
	if faultinject.Fire(faultinject.AllocCapBreach) {
		return true
	}
	return b.MaxFootprintBytes > 0 && estimate > b.MaxFootprintBytes
}

// estimateSpectralFootprint upper-bounds the peak modeled bytes of one
// spectral pass over a with the given options, using only column degrees —
// nothing is allocated. It feeds spectralFootprint, the model the finished
// pass reports, but replaces the exact nnz(S) (known only after
// construction) with the degree-sum bound from sparse.EstimateSimilarityNNZ,
// so the estimate is always ≥ the realized footprint of the similarity phase.
func estimateSpectralFootprint(a *sparse.CSR, opts SpectralOptions) int64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	k := min(opts.K, n)
	hub, colCounts := resolveHub(a)
	simBytes := estimateSimilarityBytes(a, EffectiveSimilarityMode(a, opts), hub, colCounts)
	return spectralFootprint(n, k, simBytes, opts.eigenOptions(k))
}

// estimateSimilarityBytes upper-bounds the similarity-phase bytes of tier
// mode over a: the operator's storage for SimImplicit, and for the explicit
// tiers the S its kernel materializes plus the kernel's working structures.
func estimateSimilarityBytes(a *sparse.CSR, mode SimilarityMode, hub int, colCounts []int) int64 {
	n := a.Rows
	switch mode {
	case SimImplicit:
		// Āᵀ (row pointers + indices + values) plus two matvec temporaries.
		return int64(a.Cols+1)*8 + a.NNZ()*(4+8) + int64(n)*8*2
	case SimApprox:
		// LSH index structures plus one bit pack plus the sparsified S,
		// bounded by the collision-capped pair count or the exact bound,
		// whichever is smaller.
		p := lsh.SparsifyParams()
		bands := int64(1)
		if p.BSize > 0 {
			bands = int64(p.SigLen / p.BSize)
		}
		sNNZ := int64(n) * (1 + 2*bands)
		if p.MaxDegree > 0 {
			if capped := int64(n) * (1 + 2*int64(p.MaxDegree)); capped < sNNZ {
				sNNZ = capped
			}
		}
		if exact := sparse.EstimateSimilarityNNZ(a, hub, colCounts); exact < sNNZ {
			sNNZ = exact
		}
		return lsh.ModeledSparsifyBytes(n, p) + a.NNZ()*(4+8) + int64(n+1)*8 + sNNZ*(4+8)
	default: // SimExact
		nnz := sparse.EstimateSimilarityNNZ(a, hub, colCounts)
		return int64(n+1)*8 + nnz*(4+8)
	}
}
