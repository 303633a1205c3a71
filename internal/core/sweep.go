package core

import (
	"context"
	"errors"
	"slices"
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// SweepEntry is the result of one cluster count in a spectral sweep.
type SweepEntry struct {
	K              int
	Perm           sparse.Permutation
	Inertia        float64
	PreprocessTime time.Duration // embedding share + this k's k-means
}

// SpectralSweep evaluates several cluster counts with a single eigensolve:
// the shared spectral core runs embed(max(ks)) once and assign(k) for each k
// over the leading k eigenvectors. This is how the decision-tree labeller and
// the Figure 3 sweep keep 5 k-values affordable. The entry for max(ks), and
// every entry of a single-k sweep, is bit-identical to Spectral at that k.
func SpectralSweep(a *sparse.CSR, ks []int, opts SpectralOptions) ([]SweepEntry, error) {
	return SpectralSweepContext(context.Background(), a, ks, opts)
}

// SpectralSweepContext is SpectralSweep with cooperative cancellation: the
// context is consulted before the shared eigensolve, inside it per matvec,
// and again before each k's k-means, so a sweep cancelled mid-flight stops
// launching per-k work and returns ctx.Err() promptly.
func SpectralSweepContext(ctx context.Context, a *sparse.CSR, ks []int, opts SpectralOptions) ([]SweepEntry, error) {
	if len(ks) == 0 {
		return nil, errors.New("core: empty k list")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k < 2 {
			return nil, ErrBadK
		}
	}
	n := a.Rows
	kmax := min(slices.Max(ks), n)

	// The sweep span covers the whole call; the sequential shared-embedding
	// work additionally gets similarity and eigensolve spans. The per-k
	// k-means fan-out is deliberately left uninstrumented (see assign), and
	// the sweep span already accounts for that time.
	endSweep := obs.StartStage(ctx, obs.StageSweep)
	defer endSweep()

	embedStart := time.Now()
	op, _, _, err := buildSimilarityOperator(ctx, a, opts)
	if err != nil {
		return nil, err
	}
	res, err := embed(ctx, op, opts, kmax)
	if err != nil {
		return nil, err
	}
	embedTime := time.Since(embedStart)

	// Once the shared embedding exists each k's k-means + permutation is
	// independent, so the per-k work fans out across the worker pool. Each k
	// seeds its own PRNGs from opts.Seed, so the fan-out is deterministic;
	// entries are written by index, preserving the ks order.
	entries := make([]SweepEntry, len(ks))
	errs := make([]error, len(ks))
	ferr := parallel.ForContext(ctx, len(ks), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			// Injection point for fault-tolerance tests: a mid-sweep
			// cancellation (armed with an OnFire callback that cancels ctx)
			// fires at the start of a k's work, exercising the prompt-return
			// path below.
			faultinject.Fire(faultinject.SweepCancel)
			if ctx.Err() != nil {
				return
			}
			kmStart := time.Now()
			sr, err := assign(ctx, res.Vectors, n, min(ks[idx], n), opts, false)
			if err != nil {
				errs[idx] = err
				continue
			}
			entries[idx] = SweepEntry{
				K:              ks[idx],
				Perm:           sr.Perm,
				Inertia:        sr.Inertia,
				PreprocessTime: embedTime/time.Duration(len(ks)) + time.Since(kmStart),
			}
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	for i, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if entries[i].Perm == nil {
			// Chunk abandoned between the Fire above and ctx.Err going
			// non-nil after ForContext returned.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errors.New("core: sweep entry missing")
		}
	}
	return entries, nil
}
