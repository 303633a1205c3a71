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
	"bootes/internal/lsh"
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
	// ImplicitSimilarity applies S = Ā·Āᵀ as an operator instead of forming
	// it explicitly — the memory ablation discussed in DESIGN.md. The paper's
	// Algorithm 4 forms S explicitly. Legacy flag: equivalent to Similarity =
	// SimImplicit; ignored when Similarity is set explicitly.
	ImplicitSimilarity bool
	// Similarity selects the similarity construction tier (see
	// SimilarityMode). The zero value SimAuto picks a tier from the matrix
	// size and the modeled similarity bytes.
	Similarity SimilarityMode
	// LSH parameterizes the approximate tier's MinHash/banding sparsifier;
	// the zero value selects lsh.DefaultParams (fixed seed).
	LSH lsh.Params
	// Seed drives Lanczos start vectors and k-means seeding.
	Seed int64
	// Eigen overrides eigensolver options (K is always forced to match).
	Eigen eigen.Options
	// KMeans overrides k-means options (K is always forced to match).
	KMeans cluster.KMeansOptions
	// Order selects the cluster layout policy (default Fiedler-sorted).
	Order cluster.PermutationOrder
	// HubThreshold caps the column degree used when building the similarity
	// matrix: columns denser than this are excluded (see
	// sparse.SimilarityCapped). 0 selects sparse.HubDegreeThreshold(a);
	// negative disables hub exclusion (the ablation baseline).
	HubThreshold int
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
	k := opts.K
	if k > n {
		k = n
	}

	// Step 1-2: similarity matrix and normalized-Laplacian operator.
	// Working with M = D^{-1/2}·S·D^{-1/2} (largest eigenpairs) is
	// equivalent to the smallest eigenpairs of L = I − M. The tier dispatch
	// (exact merge / bitset / LSH-approximate / implicit) is shared with the
	// sweep via buildSimilarityOperator. Stage spans close via defer too so a
	// contained panic cannot leak an open span past the ladder's recovery.
	degreeWork := int64(n) * 8 * 2 // degrees + inv-sqrt arrays
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	op, simBytes, simMode, err := buildSimilarityOperator(ctx, a, opts)
	if err != nil {
		return nil, err
	}
	endSimilarity()

	// Step 3: top-k eigenvectors via Lanczos. Clustering only needs the
	// invariant subspace approximately, so the defaults trade residual
	// precision for speed (callers can override through Opts.Eigen).
	eo := opts.Eigen
	eo.K = k
	if eo.Seed == 0 {
		eo.Seed = opts.Seed
	}
	if eo.Tol == 0 {
		eo.Tol = 1e-5
	}
	if eo.MaxRestarts == 0 {
		eo.MaxRestarts = 12
	}
	if eo.MaxBasis == 0 {
		eo.MaxBasis = 2*k + 16
		if eo.MaxBasis < 48 {
			eo.MaxBasis = 48
		}
	}
	endEigensolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEigensolve()
	res, err := eigen.LargestContext(ctx, op, eo)
	endEigensolve()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: eigensolve failed: %w", err)
	}

	// Step 4: k-means on the spectral embedding (rows = points, columns =
	// eigenvector coordinates), with Ng–Jordan–Weiss row normalization so
	// cluster membership is decided by embedding *direction* rather than
	// the degree-dependent magnitude.
	endKMeans := obs.StartStage(ctx, obs.StageKMeans)
	defer endKMeans()
	embedding := buildEmbedding(res.Vectors, n, k)
	ko := opts.KMeans
	ko.K = k
	if ko.Seed == 0 {
		ko.Seed = opts.Seed + 1
	}
	if ko.MaxIters == 0 {
		ko.MaxIters = 40
	}
	if ko.Restarts == 0 {
		ko.Restarts = 2
	}
	km, err := cluster.KMeansContext(ctx, embedding, n, k, ko)
	endKMeans()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: k-means failed: %w", err)
	}
	endPermute := obs.StartStage(ctx, obs.StagePermute)
	defer endPermute()
	perm := cluster.PermutationFromAssignment(km.Assign, k, embedding, k, opts.Order)
	endPermute()

	// Peak footprint model: the similarity matrix coexists with the degree
	// arrays and the Lanczos vectors (basis plus retained Ritz block); per
	// the paper S is freed before k-means, so the peak is max(eigend phase,
	// k-means phase).
	embedBytes := int64(len(embedding)) * 8
	eigPhase := simBytes + degreeWork + eigen.ModeledBytes(eo, n)
	kmPhase := embedBytes + int64(n)*4 + int64(k*k)*8
	foot := eigPhase
	if kmPhase > foot {
		foot = kmPhase
	}

	return &SpectralResult{
		Perm:           perm,
		Assign:         km.Assign,
		Embedding:      embedding,
		K:              k,
		Eigenvalues:    res.Values,
		MatVecs:        res.MatVecs,
		KMeansIters:    km.Iters,
		Inertia:        km.Inertia,
		Similarity:     simMode,
		PreprocessTime: time.Since(start),
		FootprintBytes: foot + int64(n)*4,
	}, nil
}

// resolveHub maps a SpectralOptions.HubThreshold to the effective cap and
// the column counts backing it (nil when no counts were needed): 0 selects
// the data-driven default, negative disables capping.
func resolveHub(a *sparse.CSR, threshold int) (hub int, colCounts []int) {
	switch {
	case threshold == 0:
		colCounts = sparse.ColCounts(a)
		return sparse.HubDegreeThresholdFromCounts(colCounts), colCounts
	case threshold < 0:
		return 0, nil
	default:
		return threshold, nil
	}
}

// buildEmbedding lays out eigenvectors as row-major point coordinates and
// applies Ng–Jordan–Weiss row normalization (each point scaled to unit
// length; all-zero rows left untouched).
func buildEmbedding(vectors [][]float64, n, k int) []float64 {
	embedding := make([]float64, n*k)
	for j, vec := range vectors {
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
			inv := 1 / sqrtf(s)
			for d := range row {
				row[d] *= inv
			}
		}
	}
	return embedding
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

func sqrtf(x float64) float64 { return math.Sqrt(x) }
