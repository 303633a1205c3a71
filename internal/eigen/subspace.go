package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bootes/internal/faultinject"
)

// BlockLargestContext computes the K algebraically largest eigenpairs of a
// symmetric operator with randomized block subspace iteration (orthogonal
// iteration with Rayleigh–Ritz acceleration). Unlike single-vector Lanczos,
// whose Krylov space contains exactly one direction per *distinct*
// eigenvalue, a block of b ≥ multiplicity random starts resolves degenerate
// and tightly clustered eigenvalues — the spectrum shape of a k-block
// similarity matrix, whose normalized operator carries the eigenvalue 1 with
// multiplicity k. That makes this the right solver for eigengap
// cluster-count detection, where the multiplicity IS the answer being
// sought.
//
// Cancellation is checked before every operator application. Options are
// interpreted as:
//
//   - K: wanted eigenpairs.
//   - MaxBasis: cap on the iteration block size (default block is K+8,
//     oversampled so trailing wanted pairs converge; 0 leaves the default).
//   - MaxRestarts: maximum subspace iterations (0 selects 40).
//   - Tol: Ritz residual tolerance relative to the spectral scale.
//   - Seed, DenseFallbackDim: as for LargestContext.
//
// Like LargestContext, a solve that runs out of iterations returns the best
// available Ritz approximations with Converged=false rather than an error.
func BlockLargestContext(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	if opts.K <= 0 {
		return nil, errors.New("eigen: K must be positive")
	}
	if opts.K > n {
		return nil, fmt.Errorf("eigen: K=%d exceeds dimension %d", opts.K, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faultinject.Fire(faultinject.EigenNoConverge) {
		return nil, ErrNoConverge
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxRestarts == 0 {
		opts.MaxRestarts = 40
	}
	if opts.DenseFallbackDim == 0 {
		opts.DenseFallbackDim = 96
	}
	b := opts.K + 8
	if opts.MaxBasis > 0 && b > opts.MaxBasis {
		b = opts.MaxBasis
	}
	if b < opts.K {
		b = opts.K
	}
	if b > n {
		b = n
	}
	// A block spanning most of the space is a dense solve in disguise — do
	// the honest dense solve instead.
	if n <= opts.DenseFallbackDim || 2*b >= n {
		return denseLargest(ctx, op, opts.K)
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5b5c4e))
	x := rowViews(make([]float64, b*n), b, n) // current orthonormal block
	v := rowViews(make([]float64, b*n), b, n) // Op·x
	u := rowViews(make([]float64, b*n), b, n) // Ritz vectors (next block)
	for j := 0; j < b; j++ {
		fillRandomUnit(rng, x[j])
	}
	c := make([]float64, b) // projection coefficients, solver scratch
	orthonormalizeBlock(x, c)

	h := make([]float64, b*b)
	eig := make([]float64, b)
	theta := make([]float64, b) // Ritz values, largest first
	matvecs := 0
	for iter := 0; iter < opts.MaxRestarts; iter++ {
		// V = Op·X, one application per block column.
		for j := 0; j < b; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := op.Apply(x[j], v[j]); err != nil {
				return nil, err
			}
			matvecs++
		}
		// Rayleigh–Ritz: H = Xᵀ(Op·X), symmetrized against round-off.
		for j := 0; j < b; j++ {
			project(c, x, v[j])
			for i, d := range c {
				h[i*b+j] = d
			}
		}
		for i := 0; i < b; i++ {
			for j := i + 1; j < b; j++ {
				d := (h[i*b+j] + h[j*b+i]) / 2
				h[i*b+j], h[j*b+i] = d, d
			}
		}
		if err := symEigen(h, b, eig, c); err != nil {
			return nil, err
		}
		// Rotate to Ritz pairs, largest first: u_r = Σ_j z[j]·x_j with z
		// the eigenvector (row of h) of the r-th largest eigenvalue.
		ref := 0.0
		for r := 0; r < b; r++ {
			row := b - 1 - r // symEigen returns ascending order
			theta[r] = eig[row]
			ref = math.Max(ref, math.Abs(eig[row]))
			combine(u[r], x, h[row*b:(row+1)*b])
		}
		if ref == 0 {
			ref = 1
		}
		// Same rotation applied to V gives W = V·Q = Op·U — the residual
		// numerator AND the next iterate (this is the operator application
		// that advances the subspace; rotating X alone would leave it fixed).
		// X's storage is free once U is built, so W overwrites it.
		for r := 0; r < b; r++ {
			row := b - 1 - r
			combine(x[r], v, h[row*b:(row+1)*b])
		}
		done := true
		for r := 0; r < opts.K; r++ {
			// residual_r = ‖w_r − θ_r·u_r‖ = ‖Op·u_r − θ_r·u_r‖.
			res := 0.0
			for i := 0; i < n; i++ {
				s := x[r][i] - theta[r]*u[r][i]
				res += s * s
			}
			if math.Sqrt(res) > opts.Tol*ref {
				done = false
				break
			}
		}
		if done {
			return blockResult(theta, u, opts.K, matvecs, true), nil
		}
		// Next block: orth(W) = orth(Op·X·Q) — one step of subspace iteration
		// with the Ritz ordering leading, so Gram–Schmidt favors dominant
		// directions.
		orthonormalizeBlock(x, c)
	}
	// Out of iterations: the latest Ritz pairs (θ, U) are mutually
	// consistent best-available approximations.
	return blockResult(theta, u, opts.K, matvecs, false), nil
}

// blockResult shapes the leading k Ritz pairs into a Result.
func blockResult(theta []float64, vecs [][]float64, k, matvecs int, converged bool) *Result {
	fixSigns(vecs[:k])
	return &Result{
		Values:    append([]float64(nil), theta[:k]...),
		Vectors:   vecs[:k:k],
		MatVecs:   matvecs,
		Converged: converged,
	}
}

// orthonormalizeBlock orthonormalizes the block in place, each vector
// against its predecessors by CGS2. Vectors that cancel to (numerical) zero
// are replaced by fresh coordinate directions so the block keeps full rank.
// c is scratch of length ≥ len(x).
func orthonormalizeBlock(x [][]float64, c []float64) {
	n := len(x[0])
	for j := range x {
		orthogonalize(x[j], x[:j], c)
		nrm := norm(x[j])
		if nrm < 1e-12 {
			// Degenerate direction: re-seed deterministically from the unit
			// basis and re-orthogonalize.
			for i := range x[j] {
				x[j][i] = 0
			}
			x[j][j%n] = 1
			orthogonalize(x[j], x[:j], c)
			nrm = norm(x[j])
			if nrm < 1e-12 {
				continue
			}
		}
		scale(x[j], 1/nrm)
	}
}
