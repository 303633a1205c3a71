package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"bootes/internal/eigen"
	"bootes/internal/obs"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// ErrInternalPanic wraps a panic recovered at the pipeline boundary. Panics
// inside a ladder rung degrade to the next rung; a panic outside any rung
// (feature extraction, gating) surfaces as this typed error instead of
// crossing the API boundary.
var ErrInternalPanic = errors.New("core: internal panic during planning")

// retrySeedMix perturbs the PRNG seed for the fresh-start eigensolve retry
// rung. XOR keeps the retry deterministic while decorrelating the Lanczos
// start vector from the failed attempt.
const retrySeedMix = 0x5DEECE66D

// looseTol is the relaxed eigensolver tolerance used by the retry and
// fixed-small-k rungs: clustering only needs the invariant subspace roughly,
// so a coarse solve is still a useful plan.
const looseTol = 1e-2

// rung is one step of the degradation ladder: a named spectral configuration
// to attempt.
type rung struct {
	name string
	opts SpectralOptions
}

// buildLadder lays out the degradation ladder for a requested
// configuration, the same rungs whatever tier the request resolves to:
//
//	requested → retry (fresh seed, loose tol, implicit)
//	          → fixed small k (k=2, implicit, loose, small basis) → identity
//
// The first rung is the caller's own configuration. The retry rung runs the
// matrix-free operator, which forms no S and so shares no kernel with a
// failed exact or approximate request. The identity rung is not in the
// list — it is the unconditional floor the caller falls to when every
// listed rung fails or the context reaches its deadline.
func buildLadder(base SpectralOptions) []rung {
	retry := base
	retry.Similarity = SimImplicit
	retry.Seed = base.Seed ^ retrySeedMix
	retry.Eigen.Seed = 0 // re-derive from the mixed Seed
	if retry.Eigen.Tol == 0 || retry.Eigen.Tol < looseTol {
		retry.Eigen.Tol = looseTol
	}

	small := retry
	small.K = 2
	small.Eigen.MaxBasis = 20

	return []rung{
		{name: "requested", opts: base},
		{name: "retry-loose", opts: retry},
		{name: "fixed-k2", opts: small},
	}
}

// attemptSpectral runs one ladder rung with panic containment: a panic
// anywhere inside the spectral pass (including ones re-raised from worker
// goroutines by the parallel pool) comes back as an ErrInternalPanic-wrapped
// error, so the ladder can descend instead of crashing the caller.
func attemptSpectral(ctx context.Context, opts SpectralOptions, a *sparse.CSR) (sr *SpectralResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sr, err = nil, fmt.Errorf("%w: %v", ErrInternalPanic, rec)
		}
	}()
	return Spectral{Opts: opts}.ReorderContext(ctx, a)
}

// rungReason phrases why a planning rung's attempt failed with err.
// planserve's retry classifier matches on these phrases.
func rungReason(rung string, err error) string {
	switch {
	case errors.Is(err, eigen.ErrNoConverge):
		return rung + ": eigensolver did not converge"
	case errors.Is(err, ErrInternalPanic):
		return fmt.Sprintf("%s: contained panic (%v)", rung, err)
	default:
		return fmt.Sprintf("%s: %v", rung, err)
	}
}

// ReorderContext is the fault-tolerant planning entry point: Reorder with
// cooperative cancellation, a deadline, and the graceful-degradation ladder.
// Outcomes:
//
//   - ctx cancelled, on entry or mid-flight → (nil, ctx.Err()) promptly,
//     before any similarity storage is allocated when pre-cancelled.
//   - ctx reaches its deadline, on entry or mid-flight → identity plan with
//     Degraded=true, never an error (a gate decline stays a decline).
//   - Eigensolver non-convergence, operator errors, or contained panics →
//     the ladder descends; the identity rung cannot fail.
//
// Every degradation is recorded in Result.Degraded / Result.DegradedReason;
// with no faults and time to spare the result is bit-identical to Reorder's.
func (p *Pipeline) ReorderContext(ctx context.Context, a *sparse.CSR) (res *reorder.Result, err error) {
	// Registered before the recover defer so it observes the converted error:
	// every exit from planning lands in bootes_plans_total exactly once.
	defer func() {
		switch {
		case err != nil:
			obs.PlanOutcome(ctx, obs.OutcomeError)
		case res != nil && res.Degraded:
			obs.PlanOutcome(ctx, obs.OutcomeDegraded)
		case res != nil:
			obs.PlanOutcome(ctx, obs.OutcomeHealthy)
		}
	}()
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrInternalPanic, rec)
		}
	}()
	start := time.Now()
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	endFeatures := obs.StartStage(ctx, obs.StageFeatures)
	defer endFeatures()
	label, err := p.Decide(a)
	endFeatures()
	if err != nil {
		return nil, err
	}
	k, err := KForLabel(label)
	if err != nil {
		return nil, err
	}
	if p.ForceK > 0 {
		k = p.ForceK
	} else if p.ForceReorder && k == 0 {
		k = CandidateKs[len(CandidateKs)/2]
	}

	if k == 0 && !p.ForceReorder {
		// Gate says no: identity permutation, near-zero cost. Declining is a
		// *decision*, not a degradation.
		return &reorder.Result{
			Perm:           sparse.IdentityPerm(a.Rows),
			PreprocessTime: time.Since(start),
			FootprintBytes: int64(a.Rows)*4 + modelBytes(p.Model),
			Reordered:      false,
			Extra:          map[string]float64{"k": 0},
		}, nil
	}

	base := p.Spectral
	base.K = k
	var reasons []string
	for _, r := range buildLadder(base) {
		if ctx.Err() != nil {
			break
		}
		obs.RungAttempt(ctx, r.name)
		sr, err := attemptSpectral(ctx, r.opts, a)
		if err != nil {
			obs.RungFailure(ctx, r.name)
			if ctx.Err() == nil {
				reasons = append(reasons, rungReason(r.name, err))
			}
			continue
		}
		return &reorder.Result{
			Perm:           sr.Perm,
			PreprocessTime: time.Since(start),
			FootprintBytes: sr.FootprintBytes + modelBytes(p.Model),
			Reordered:      !sr.Perm.IsIdentity(),
			Degraded:       len(reasons) > 0,
			DegradedReason: strings.Join(reasons, "; "),
			SimilarityMode: sr.Similarity.String(),
			Extra: map[string]float64{
				"k":           float64(r.opts.K),
				"matvecs":     float64(sr.MatVecs),
				"kmeansIters": float64(sr.KMeansIters),
			},
		}, nil
	}

	// Identity floor: every rung failed, or ctx is done. A cancellation is
	// the caller's error; at its deadline the plan is still valid — the
	// matrix is simply left as-is.
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		reasons = append(reasons, "wall-clock budget exhausted")
	}
	return &reorder.Result{
		Perm:           sparse.IdentityPerm(a.Rows),
		PreprocessTime: time.Since(start),
		FootprintBytes: int64(a.Rows)*4 + modelBytes(p.Model),
		Reordered:      false,
		Degraded:       true,
		DegradedReason: strings.Join(reasons, "; ") + "; fell back to identity",
		Extra:          map[string]float64{"k": 0},
	}, nil
}

// cancelled returns ctx's error when ctx was cancelled, and nil when it is
// live or has only reached its deadline: a cancellation fails the plan, a
// deadline degrades it to the identity.
func cancelled(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
