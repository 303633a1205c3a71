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

// buildLadder lays out the degradation ladder for a requested configuration
// whose effective similarity tier is eff:
//
//	requested → approx-similarity → implicit-similarity
//	          → retry (fresh seed, loose tol)
//	          → fixed small k (k=2, implicit, loose, small basis) → identity
//
// The first rung is the caller's own configuration. The approx rung — the
// LSH-sparsified similarity, cheaper in both time and memory than any exact
// kernel — is inserted only when the request resolves to an exact tier, so
// budget pressure degrades exact → approx → implicit; when the request
// already runs approximate or implicit similarity the ladder skips straight
// past the corresponding rungs. The identity rung is not in the list — it is
// the unconditional floor the caller falls to when every listed rung is
// skipped or fails.
func buildLadder(base SpectralOptions, eff SimilarityMode) []rung {
	var ladder []rung
	ladder = append(ladder, rung{name: "requested", opts: base})

	if eff.Class() == SimClassExact {
		approx := base
		approx.Similarity = SimApprox
		ladder = append(ladder, rung{name: "approx-similarity", opts: approx})
	}

	impl := base
	impl.Similarity = SimImplicit
	if eff != SimImplicit {
		ladder = append(ladder, rung{name: "implicit-similarity", opts: impl})
	}

	retry := impl
	retry.Seed = impl.Seed ^ retrySeedMix
	retry.Eigen.Seed = 0 // re-derive from the mixed Seed
	if retry.Eigen.Tol == 0 || retry.Eigen.Tol < looseTol {
		retry.Eigen.Tol = looseTol
	}
	ladder = append(ladder, rung{name: "retry-loose", opts: retry})

	small := retry
	small.K = 2
	small.Eigen.MaxBasis = 20
	ladder = append(ladder, rung{name: "fixed-k2", opts: small})

	return ladder
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

// ReorderContext is the fault-tolerant planning entry point: Reorder with
// cooperative cancellation, resource budgets, and the graceful-degradation
// ladder. Outcomes:
//
//   - ctx already done or cancelled mid-flight → (nil, ctx.Err()) promptly,
//     before any similarity storage is allocated when pre-cancelled.
//   - Budget.MaxWallClock expires (ctx itself still live) → identity plan
//     with Degraded=true, never an error.
//   - A rung's memory estimate exceeds Budget.MaxFootprintBytes → that rung
//     is skipped before allocation and the ladder descends.
//   - Eigensolver non-convergence, operator errors, or contained panics →
//     the ladder descends; the identity rung cannot fail.
//
// Every degradation is recorded in Result.Degraded / Result.DegradedReason;
// with no faults and a zero Budget the result is bit-identical to Reorder's.
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endFeatures := obs.StartStage(ctx, obs.StageFeatures)
	defer endFeatures()
	label, feats, err := p.Decide(a)
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
			Extra: map[string]float64{
				"k":        0,
				"decision": float64(label),
				"interAvg": feats.InterAvg,
			},
		}, nil
	}

	// The wall-clock budget is enforced through a derived context so every
	// phase's existing cancellation checks double as budget checks. The
	// caller's ctx stays authoritative: its cancellation is an error, budget
	// expiry is a degradation.
	runCtx := ctx
	if p.Budget.MaxWallClock > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, p.Budget.MaxWallClock)
		defer cancel()
	}

	base := p.Spectral
	base.K = k
	eff := EffectiveSimilarityMode(a, base)
	var reasons []string

	// Auto-k rung: attempted once, before the fixed-k ladder. A successful
	// selection returns directly; a fallback outcome (ambiguous spectrum,
	// implicit tier) proceeds with the tree's k un-degraded; a failure
	// degrades onto the fixed-k ladder with the reason recorded.
	autoK := ""
	if p.AutoK && p.ForceK == 0 {
		if est := estimateAutoKFootprint(a, base); p.Budget.memoryExceeded(est) {
			obs.RungFailure(ctx, "autok")
			obs.AutoKOutcome(ctx, AutoKDegraded)
			reasons = append(reasons,
				fmt.Sprintf("autok: memory estimate %d B over budget", est))
			autoK = AutoKDegraded
		} else {
			obs.RungAttempt(ctx, "autok")
			sr, outcome, err := p.attemptAutoK(runCtx, a, base)
			switch {
			case err == nil && sr != nil:
				obs.AutoKOutcome(ctx, AutoKOutcomeLabel(outcome))
				return &reorder.Result{
					Perm:           sr.Perm,
					PreprocessTime: time.Since(start),
					FootprintBytes: sr.FootprintBytes + modelBytes(p.Model),
					Reordered:      !sr.Perm.IsIdentity(),
					SimilarityMode: sr.Similarity.String(),
					AutoK:          outcome,
					Extra: map[string]float64{
						"k":           float64(sr.K),
						"decision":    float64(label),
						"matvecs":     float64(sr.MatVecs),
						"kmeansIters": float64(sr.KMeansIters),
						"interAvg":    feats.InterAvg,
					},
				}, nil
			case err == nil:
				obs.AutoKOutcome(ctx, AutoKOutcomeLabel(outcome))
				autoK = outcome
			default:
				obs.RungFailure(ctx, "autok")
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				obs.AutoKOutcome(ctx, AutoKDegraded)
				autoK = AutoKDegraded
				if runCtx.Err() != nil {
					reasons = append(reasons, "autok: wall-clock budget exhausted")
				} else {
					switch {
					case errors.Is(err, eigen.ErrNoConverge):
						reasons = append(reasons, "autok: eigensolver did not converge")
					case errors.Is(err, ErrInternalPanic):
						reasons = append(reasons, fmt.Sprintf("autok: contained panic (%v)", err))
					default:
						reasons = append(reasons, fmt.Sprintf("autok: %v", err))
					}
				}
			}
		}
	}

	for _, r := range buildLadder(base, eff) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if runCtx.Err() != nil {
			reasons = append(reasons, "wall-clock budget exhausted")
			break
		}
		if est := estimateSpectralFootprint(a, r.opts); p.Budget.memoryExceeded(est) {
			obs.RungFailure(ctx, r.name)
			reasons = append(reasons,
				fmt.Sprintf("%s: memory estimate %d B over budget", r.name, est))
			continue
		}
		obs.RungAttempt(ctx, r.name)
		sr, err := attemptSpectral(runCtx, r.opts, a)
		if err != nil {
			obs.RungFailure(ctx, r.name)
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			if runCtx.Err() != nil {
				reasons = append(reasons, "wall-clock budget exhausted")
				break
			}
			switch {
			case errors.Is(err, eigen.ErrNoConverge):
				reasons = append(reasons, fmt.Sprintf("%s: eigensolver did not converge", r.name))
			case errors.Is(err, ErrInternalPanic):
				reasons = append(reasons, fmt.Sprintf("%s: contained panic (%v)", r.name, err))
			default:
				reasons = append(reasons, fmt.Sprintf("%s: %v", r.name, err))
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
			AutoK:          autoK,
			Extra: map[string]float64{
				"k":           float64(r.opts.K),
				"decision":    float64(label),
				"matvecs":     float64(sr.MatVecs),
				"kmeansIters": float64(sr.KMeansIters),
				"interAvg":    feats.InterAvg,
			},
		}, nil
	}

	// Identity floor: every rung was skipped or failed (or the budget clock
	// ran out). Still a valid plan — the matrix is simply left as-is.
	if len(reasons) == 0 {
		reasons = append(reasons, "no ladder rung attempted")
	}
	return &reorder.Result{
		Perm:           sparse.IdentityPerm(a.Rows),
		PreprocessTime: time.Since(start),
		FootprintBytes: int64(a.Rows)*4 + modelBytes(p.Model),
		Reordered:      false,
		Degraded:       true,
		DegradedReason: strings.Join(reasons, "; ") + "; fell back to identity",
		AutoK:          autoK,
		Extra: map[string]float64{
			"k":        0,
			"decision": float64(label),
			"interAvg": feats.InterAvg,
		},
	}, nil
}
