package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bootes/internal/faultinject"
)

// Options configures the Lanczos eigensolver.
type Options struct {
	// K is the number of wanted eigenpairs (the largest eigenvalues of the
	// operator).
	K int
	// MaxBasis bounds the Krylov basis size per restart cycle.
	// 0 selects max(4K+8, 48). Values below K+min(K,8)+1 are raised to it,
	// so every restart cycle adds at least one Krylov vector; the result is
	// clamped to the operator dimension.
	MaxBasis int
	// Tol is the Ritz-residual tolerance relative to the spectral scale.
	// 0 selects 1e-8.
	Tol float64
	// MaxRestarts bounds thick-restart cycles. 0 selects 40.
	MaxRestarts int
	// Seed seeds the random start vector for determinism.
	Seed int64
	// DenseFallbackDim: problems of dimension ≤ this are solved densely
	// (Householder tridiagonalization + implicit QL) instead of by Lanczos.
	// 0 selects 96.
	DenseFallbackDim int
	// LocalReorth switches from full reorthogonalization to the classic
	// three-term recurrence (orthogonalize only against the two previous
	// basis vectors, plus the retained Ritz block right after a restart).
	// Cheaper per step, but floating-point drift re-introduces converged
	// directions ("ghost" eigenvalues) on clustered spectra — the ablation
	// that motivates full reorthogonalization as the default.
	LocalReorth bool
}

func (o Options) withDefaults(n int) Options {
	if o.MaxBasis == 0 {
		o.MaxBasis = 4*o.K + 8
		if o.MaxBasis < 48 {
			o.MaxBasis = 48
		}
	}
	// A restart retains RitzBlock(K) vectors plus the residual direction;
	// a basis no larger than that restarts without adding a Krylov vector.
	if floor := RitzBlock(o.K) + 1; o.MaxBasis < floor {
		o.MaxBasis = floor
	}
	if o.MaxBasis > n {
		o.MaxBasis = n
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 40
	}
	if o.DenseFallbackDim == 0 {
		o.DenseFallbackDim = 96
	}
	return o
}

// Result holds converged eigenpairs of the operator, largest eigenvalue
// first. Vectors[i] is the unit eigenvector for Values[i], signed so that
// its largest-magnitude entry is positive.
type Result struct {
	Values  []float64
	Vectors [][]float64
	// MatVecs is the number of operator applications performed — the Krylov
	// iteration count t in the paper's Table 2 complexity analysis.
	MatVecs int
	// Converged reports whether all K pairs met the residual tolerance.
	// When false the best available Ritz approximations are returned, which
	// is almost always sufficient for clustering purposes.
	Converged bool
}

// Largest computes the K algebraically largest eigenpairs of a symmetric
// operator using thick-restart Lanczos with full reorthogonalization. For
// tiny problems it falls back to a dense solve.
func Largest(op Operator, opts Options) (*Result, error) {
	return LargestContext(context.Background(), op, opts)
}

// LargestContext is Largest with cooperative cancellation: the context is
// checked before every operator application (the unit of Lanczos progress)
// and once per restart cycle, so a cancelled solve returns ctx.Err() within
// one matvec of the cancellation.
func LargestContext(ctx context.Context, op Operator, opts Options) (*Result, error) {
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
	opts = opts.withDefaults(n)
	if n <= opts.DenseFallbackDim || opts.MaxBasis >= n {
		return denseLargest(ctx, op, opts.K)
	}
	return thickRestartLanczos(ctx, op, opts)
}

// fixSigns flips each vector, if needed, so that its largest-magnitude
// entry is positive (the first such entry on ties). Every solver path
// applies it to the vectors it returns. An eigenvector's sign is arbitrary
// — it falls out of the solver's rotation conventions — but the spectral
// layout downstream is not sign-invariant, so fixing the sign makes plans
// independent of how the solver got there.
func fixSigns(vecs [][]float64) {
	for _, v := range vecs {
		k := 0
		for i, x := range v {
			if math.Abs(x) > math.Abs(v[k]) {
				k = i
			}
		}
		if v[k] < 0 {
			scale(v, -1)
		}
	}
}

// denseLargest materializes the operator row by row and solves it with the
// dense symmetric solver.
func denseLargest(ctx context.Context, op Operator, k int) (*Result, error) {
	n := op.Dim()
	a := make([]float64, n*n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		// Op·e_j is column j, which for a symmetric operator is also row j.
		if err := op.Apply(x, a[j*n:(j+1)*n]); err != nil {
			return nil, err
		}
	}
	// Symmetrize to wash out round-off asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (a[i*n+j] + a[j*n+i]) / 2
			a[i*n+j], a[j*n+i] = m, m
		}
	}
	eig := make([]float64, n)
	if err := symEigen(a, n, eig, x); err != nil { // x is free: solver scratch
		return nil, err
	}
	vecs := rowViews(make([]float64, k*n), k, n)
	res := &Result{Values: make([]float64, k), Vectors: vecs, MatVecs: n, Converged: true}
	for i := 0; i < k; i++ {
		row := n - 1 - i // ascending order → take from the back
		res.Values[i] = eig[row]
		copy(vecs[i], a[row*n:(row+1)*n])
	}
	fixSigns(vecs)
	return res, nil
}

// thickRestartLanczos implements the Wu–Simon thick-restart scheme. The
// basis is kept fully orthogonal; after each cycle the top Ritz vectors are
// retained and the projected problem becomes arrowhead-plus-tridiagonal,
// which we solve densely (it is at most MaxBasis × MaxBasis).
func thickRestartLanczos(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	m := opts.MaxBasis
	keepMax := min(RitzBlock(opts.K), m)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x1a2c3))

	// Every buffer is allocated once and reused across restarts, so no
	// Lanczos step or restart allocates: the basis lives in one (m+1)×n
	// slab, the retained Ritz block in one keepMax×n slab.
	basis := rowViews(make([]float64, (m+1)*n), m+1, n)
	ritz := rowViews(make([]float64, keepMax*n), keepMax, n)
	w := make([]float64, n)
	// proj is the projected symmetric matrix in the current basis, stored
	// dense row-major with stride m+1. Each Rayleigh–Ritz solve copies its
	// leading q×q block into sub, which comes back holding the Ritz
	// coefficient vectors as rows.
	stride := m + 1
	proj := make([]float64, stride*stride)
	set := func(i, j int, x float64) {
		proj[i*stride+j] = x
		proj[j*stride+i] = x
	}
	sub := make([]float64, m*m)
	theta := make([]float64, m)    // Ritz values, ascending
	coupling := make([]float64, m) // signed residual coefficient per Ritz pair
	coef := make([]float64, m+1)   // Gram–Schmidt coefficients, solver scratch

	fillRandomUnit(rng, basis[0])
	size := 1 // vectors currently in the basis
	matvecs := 0
	kept := 0 // size of the retained Ritz block after the latest restart

	for restart := 0; restart <= opts.MaxRestarts; restart++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Extend the basis with Lanczos steps from position size-1.
		for size <= m {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			j := size - 1
			if err := op.Apply(basis[j], w); err != nil {
				return nil, err
			}
			matvecs++
			if opts.LocalReorth && j > kept {
				// Three-term recurrence: only v_{j-1} and v_j carry weight
				// in exact arithmetic (plus the arrow block at j == kept,
				// handled by the branch condition). H entries beyond the
				// tridiagonal couple are left at their recorded values.
				for i := j - 1; i <= j; i++ {
					d := dot(w, basis[i])
					axpy(w, basis[i], -d)
					set(i, j, d)
				}
			} else {
				// Full reorthogonalization (CGS2: two classical
				// Gram–Schmidt passes). The first pass projects the
				// unmodified w, so its coefficients are exactly the
				// projected-matrix entries H[i,j] = ⟨v_i, Op·v_j⟩ (they
				// overwrite the β coupling recorded at the previous step,
				// which equals the same projection); the second pass
				// removes round-off.
				gramSchmidt(w, basis[:size], coef)
				for i, d := range coef[:size] {
					set(i, j, d)
				}
				gramSchmidt(w, basis[:size], coef)
			}
			next := basis[size]
			beta := norm(w)
			if beta < 1e-12 {
				// Invariant subspace: continue with a fresh random direction.
				fillRandomUnit(rng, next)
				orthogonalize(next, basis[:size], coef)
				nv := norm(next)
				if nv < 1e-12 {
					break // dimension exhausted
				}
				scale(next, 1/nv)
				size++
				// Coupling to the rest of the basis is zero (already set).
				continue
			}
			copy(next, w)
			scale(next, 1/beta)
			set(j, size, beta)
			size++
		}

		// Rayleigh–Ritz on the projected matrix of order q = size-1 (the
		// last basis vector is the residual direction, not part of the
		// projection — its coupling column is the residual norm).
		q := size - 1
		for i := 0; i < q; i++ {
			copy(sub[i*q:(i+1)*q], proj[i*stride:i*stride+q])
		}
		if err := symEigen(sub, q, theta, coef); err != nil {
			return nil, err
		}
		// Ritz pair i is (theta[i], Σ_j z_i[j]·v_j) with z_i row i of sub;
		// its residual is |⟨r, z_i⟩|, r being the projected row of the
		// residual vector.
		r := proj[q*stride : q*stride+q]
		for i := 0; i < q; i++ {
			coupling[i] = dot(r, sub[i*q:(i+1)*q])
		}
		scaleRef := math.Max(math.Abs(theta[0]), math.Abs(theta[q-1]))
		if scaleRef == 0 {
			scaleRef = 1
		}
		// Wanted pairs are the top K (theta ascending → last K).
		allConverged := true
		for i := 0; i < opts.K; i++ {
			if math.Abs(coupling[q-1-i]) > opts.Tol*scaleRef {
				allConverged = false
				break
			}
		}

		// Form the Ritz vectors we keep: K wanted plus padding for restart.
		finished := allConverged || restart == opts.MaxRestarts || q >= n-1
		keep := min(keepMax, q)
		if finished {
			keep = opts.K
		}
		for i := 0; i < keep; i++ {
			col := q - 1 - i
			combine(ritz[i], basis[:q], sub[col*q:(col+1)*q])
			if nv := norm(ritz[i]); nv > 0 {
				scale(ritz[i], 1/nv)
			}
		}
		if finished {
			return ritzResult(theta[:q], ritz, opts.K, matvecs, allConverged), nil
		}

		// Thick restart: basis = retained Ritz vectors + residual direction.
		res := basis[keep]
		if keep != q {
			copy(res, basis[q])
		}
		for i := 0; i < keep; i++ {
			copy(basis[i], ritz[i])
		}
		orthogonalize(res, basis[:keep], coef)
		nv := norm(res)
		if nv < 1e-12 {
			fillRandomUnit(rng, res)
			orthogonalize(res, basis[:keep], coef)
			nv = norm(res)
			if nv < 1e-12 {
				return ritzResult(theta[:q], ritz, opts.K, matvecs, allConverged), nil
			}
		}
		scale(res, 1/nv)
		size = keep + 1
		kept = keep

		// Rebuild the projected matrix: diag(theta) with arrow coupling.
		for i := range proj {
			proj[i] = 0
		}
		for i := 0; i < keep; i++ {
			col := q - 1 - i
			set(i, i, theta[col])
			set(i, keep, coupling[col])
		}
	}
	return nil, ErrNoConverge
}

// ritzResult packages the top k Ritz pairs: theta holds the Ritz values in
// ascending order and ritz[i] the vector of the i-th largest.
func ritzResult(theta []float64, ritz [][]float64, k, matvecs int, converged bool) *Result {
	res := &Result{Values: make([]float64, k), Vectors: ritz[:k:k], MatVecs: matvecs, Converged: converged}
	for i := range res.Values {
		res.Values[i] = theta[len(theta)-1-i]
	}
	fixSigns(res.Vectors)
	return res
}

// RitzBlock is the number of Ritz vectors a thick restart retains: the K
// wanted pairs plus up to eight more, which speed up convergence of the
// trailing wanted ones. Each restart cycle therefore adds
// MaxBasis − RitzBlock(K) Krylov vectors, one matvec each, and a solve that
// never converges stops after MaxBasis + MaxRestarts·(MaxBasis − RitzBlock(K))
// matvecs.
func RitzBlock(k int) int { return k + min(k, 8) }

// ModeledBytes is the vector storage LargestContext holds for a dimension-n
// operator under opts, in float64s: the (MaxBasis+1)×n basis slab plus the
// retained Ritz block, or, for a problem small enough for the dense path,
// the materialized n×n operator plus the K result vectors. It is the
// eigensolve term of the spectral pipeline's footprint model.
func ModeledBytes(opts Options, n int) int64 {
	o := opts.withDefaults(n)
	vecs := o.MaxBasis + 1 + min(RitzBlock(o.K), o.MaxBasis)
	if n <= o.DenseFallbackDim || o.MaxBasis >= n {
		vecs = n + o.K
	}
	return int64(vecs) * int64(n) * 8
}

// rowViews cuts a rows×n slab into per-row views, each capped at its own
// row so an append can never spill into the next.
func rowViews(slab []float64, rows, n int) [][]float64 {
	v := make([][]float64, rows)
	for i := range v {
		v[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return v
}
