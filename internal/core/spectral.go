// Package core implements the paper's primary contribution: spectral-
// clustering row reordering (Algorithm 4) plus the decision-tree-gated
// preprocessing pipeline that decides whether to reorder at all and which
// cluster count k to use.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"bootes/internal/cluster"
	"bootes/internal/eigen"
	"bootes/internal/obs"
	"bootes/internal/sparse"
)

// CandidateKs are the cluster counts the paper found to offer the best
// trade-off across 500 SuiteSparse/SNAP matrices (§3.1.2).
var CandidateKs = []int{2, 4, 8, 16, 32}

// SpectralOptions configures one spectral reordering pass.
type SpectralOptions struct {
	// K is the number of eigenvectors and k-means clusters. It must be ≥ 2;
	// the pipeline restricts it to CandidateKs.
	K int
	// Similarity selects the similarity tier (see SimilarityMode). The zero
	// value SimAuto resolves by EffectiveSimilarityMode: the matrix-free
	// operator, which applies S = Ā·Āᵀ without forming it, except in the
	// approximate row band. SimExact is the paper's Algorithm 4 as written.
	Similarity SimilarityMode
	// Seed drives Lanczos start vectors and k-means seeding.
	Seed int64
	// Eigen overrides eigensolver options (K is always forced to match).
	Eigen eigen.Options
	// KMeans overrides k-means options (K is always forced to match).
	KMeans cluster.KMeansOptions
	// Order selects the cluster layout policy (default Fiedler-sorted).
	Order cluster.PermutationOrder
}

// eigenOptions is the eigensolver configuration for a kdim-vector solve:
// Eigen with every unset field filled in. Clustering only needs the
// invariant subspace approximately, so the defaults trade residual precision
// for speed. Every solve of the spectral pass — fixed k, the sweep, the
// eigengap selector's spectrum — and the footprint model take their
// settings from here.
func (o SpectralOptions) eigenOptions(kdim int) eigen.Options {
	eo := o.Eigen
	eo.K = kdim
	if eo.Seed == 0 {
		eo.Seed = o.Seed
	}
	if eo.Tol == 0 {
		eo.Tol = 1e-5
	}
	if eo.MaxRestarts == 0 {
		eo.MaxRestarts = 12
	}
	if eo.MaxBasis == 0 {
		eo.MaxBasis = max(2*kdim+16, 48)
	}
	return eo
}

// kmeansOptions is the k-means configuration for k clusters: KMeans with
// every unset field filled in. The seed does not depend on k, so every path
// that clusters the same embedding at the same k gets the same answer.
func (o SpectralOptions) kmeansOptions(k int) cluster.KMeansOptions {
	ko := o.KMeans
	ko.K = k
	if ko.Seed == 0 {
		ko.Seed = o.Seed + 1
	}
	if ko.MaxIters == 0 {
		ko.MaxIters = 40
	}
	if ko.Restarts == 0 {
		ko.Restarts = 2
	}
	return ko
}

// ErrBadK reports an invalid cluster count.
var ErrBadK = errors.New("core: cluster count must be at least 2")

// Spectral is the Bootes spectral-clustering reorderer for a fixed k. Use
// Bootes (pipeline.go) for the full cost-gated, k-selecting pipeline.
type Spectral struct {
	Opts SpectralOptions
}

// Name implements reorder.Reorderer.
func (s Spectral) Name() string { return fmt.Sprintf("Spectral(k=%d)", s.Opts.K) }

// Reorder runs Algorithm 4: similarity matrix → normalized Laplacian →
// top-k eigenvectors → k-means → cluster-grouped permutation.
func (s Spectral) Reorder(a *sparse.CSR) (*SpectralResult, error) {
	return s.ReorderContext(context.Background(), a)
}

// ReorderContext is Reorder with cooperative cancellation, threaded through
// every phase: similarity construction (per chunk), Lanczos (per matvec) and
// k-means (per restart and iteration). A context that is already done
// returns ctx.Err() before any similarity storage is allocated.
//
// The pass is the shared spectral core: buildSimilarityOperator → embed(k)
// → assign(k). Working with M = D^{-1/2}·S·D^{-1/2} (largest eigenpairs) is
// equivalent to the smallest eigenpairs of the normalized Laplacian I − M.
func (s Spectral) ReorderContext(ctx context.Context, a *sparse.CSR) (*SpectralResult, error) {
	start := time.Now()
	opts := s.Opts
	if opts.K < 2 {
		return nil, ErrBadK
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := a.Rows
	if n == 0 {
		return &SpectralResult{Perm: sparse.Permutation{}}, nil
	}
	k := min(opts.K, n)

	op, simBytes, simMode, err := buildSimilarityOperator(ctx, a, opts)
	if err != nil {
		return nil, err
	}
	res, err := embed(ctx, op, opts, k)
	if err != nil {
		return nil, err
	}
	sr, err := assign(ctx, res.Vectors, n, k, opts, true)
	if err != nil {
		return nil, err
	}
	sr.Eigenvalues = res.Values
	sr.MatVecs = res.MatVecs
	sr.Similarity = simMode
	sr.PreprocessTime = time.Since(start)
	sr.FootprintBytes = spectralFootprint(n, k, simBytes, opts.eigenOptions(k))
	return sr, nil
}

// embed solves for the kdim leading eigenpairs of op (Algorithm 4, step 3)
// under an eigensolve stage span. A cancelled solve returns ctx.Err().
func embed(ctx context.Context, op eigen.Operator, opts SpectralOptions, kdim int) (*eigen.Result, error) {
	endEigensolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEigensolve()
	res, err := eigen.LargestContext(ctx, op, opts.eigenOptions(kdim))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: eigensolve failed: %w", err)
	}
	return res, nil
}

// assign clusters the n points spanned by the leading k of vectors
// (Algorithm 4, steps 4-5). The vectors come in descending eigenvalue order,
// so that prefix is exactly the k-dimensional spectral embedding. Rows get
// Ng–Jordan–Weiss normalization (each point scaled to unit length, all-zero
// rows left untouched), so cluster membership is decided by embedding
// direction rather than the degree-dependent magnitude; then k-means and the
// cluster-grouped layout. The result carries the clustering fields only.
//
// traced opens the kmeans and permute stage spans; they close via defer too,
// so a contained panic cannot leak an open span past the ladder's recovery.
// The sweep's parallel fan-out runs untraced: spans from concurrent workers
// would interleave clock reads nondeterministically.
func assign(ctx context.Context, vectors [][]float64, n, k int, opts SpectralOptions, traced bool) (*SpectralResult, error) {
	stage := func(name string) func() {
		if !traced {
			return func() {}
		}
		return obs.StartStage(ctx, name)
	}
	endKMeans := stage(obs.StageKMeans)
	defer endKMeans()
	embedding := make([]float64, n*k)
	for j, vec := range vectors[:k] {
		for i := 0; i < n; i++ {
			embedding[i*k+j] = vec[i]
		}
	}
	for i := 0; i < n; i++ {
		row := embedding[i*k : (i+1)*k]
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		if s > 0 {
			inv := 1 / math.Sqrt(s)
			for d := range row {
				row[d] *= inv
			}
		}
	}
	km, err := cluster.KMeansContext(ctx, embedding, n, k, opts.kmeansOptions(k))
	endKMeans()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: k-means failed: %w", err)
	}
	endPermute := stage(obs.StagePermute)
	defer endPermute()
	return &SpectralResult{
		Perm:        cluster.PermutationFromAssignment(km.Assign, k, embedding, k, opts.Order),
		Assign:      km.Assign,
		Embedding:   embedding,
		K:           k,
		KMeansIters: km.Iters,
		Inertia:     km.Inertia,
	}, nil
}

// spectralFootprint is the peak-memory model of one spectral pass over n rows
// clustered k ways: the eigensolve phase (simBytes of similarity storage, the
// degree and inverse-square-root arrays, and the solver's vectors under eo)
// or the k-means phase (the n×k embedding, the assignment and the
// centroids), whichever is larger — per the paper S is freed before k-means
// — plus the output permutation. A fixed-k result reports it.
func spectralFootprint(n, k int, simBytes int64, eo eigen.Options) int64 {
	eigPhase := simBytes + int64(n)*8*2 + eigen.ModeledBytes(eo, n)
	kmPhase := int64(n)*int64(k)*8 + int64(n)*4 + int64(k*k)*8
	return max(eigPhase, kmPhase) + int64(n)*4
}

// resolveHub returns the data-driven hub-column cap for a (columns denser
// than it are excluded from the similarity, see sparse.SimilarityCapped) and
// the column counts backing it.
func resolveHub(a *sparse.CSR) (hub int, colCounts []int) {
	colCounts = sparse.ColCounts(a)
	return sparse.HubDegreeThresholdFromCounts(colCounts), colCounts
}

// SpectralResult carries the permutation plus the intermediate artifacts the
// experiments and the decision-tree labeller inspect.
type SpectralResult struct {
	Perm        sparse.Permutation
	Assign      []int32
	Embedding   []float64 // n×K row-major spectral embedding
	K           int
	Eigenvalues []float64 // of M = D^{-1/2}SD^{-1/2}, descending
	MatVecs     int
	KMeansIters int
	Inertia     float64
	// Similarity is the resolved tier the similarity phase actually ran
	// (never SimAuto).
	Similarity     SimilarityMode
	PreprocessTime time.Duration
	FootprintBytes int64
}
