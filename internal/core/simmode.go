package core

import (
	"context"
	"fmt"

	"bootes/internal/eigen"
	"bootes/internal/lsh"
	"bootes/internal/obs"
	"bootes/internal/sparse"
)

// SimilarityMode selects how the spectral pass obtains its normalized
// similarity operator — the three-tier fast path plus the two explicit exact
// kernels:
//
//   - SimExact: merge-based S = Ā·Āᵀ (sparse.SimilarityContext), the paper's
//     Algorithm 4 as written.
//   - SimBitset: the same S bit-identically, via packed word-AND + popcount
//     kernels (sparse.SimilarityBitsetContext).
//   - SimApprox: LSH-sparsified S on MinHash/banding candidate pairs with
//     exact counts (lsh.SparsifiedSimilarity).
//   - SimImplicit: the matrix-free operator (eigen.ImplicitSimilarity); S is
//     never formed.
//
// SimAuto (the zero value) lets the selector pick a tier from the matrix
// size and the pre-allocation similarity-size bound.
type SimilarityMode int

// The similarity tiers. SimAuto is the default and resolves to one of the
// others via EffectiveSimilarityMode.
const (
	SimAuto SimilarityMode = iota
	SimExact
	SimBitset
	SimApprox
	SimImplicit
)

// String names the mode as accepted by ParseSimilarityMode.
func (m SimilarityMode) String() string {
	switch m {
	case SimAuto:
		return "auto"
	case SimExact:
		return "exact"
	case SimBitset:
		return "bitset"
	case SimApprox:
		return "approx"
	case SimImplicit:
		return "implicit"
	default:
		return fmt.Sprintf("SimilarityMode(%d)", int(m))
	}
}

// ParseSimilarityMode parses a mode name (the -similarity flag values).
func ParseSimilarityMode(s string) (SimilarityMode, error) {
	switch s {
	case "", "auto":
		return SimAuto, nil
	case "exact":
		return SimExact, nil
	case "bitset":
		return SimBitset, nil
	case "approx":
		return SimApprox, nil
	case "implicit":
		return SimImplicit, nil
	default:
		return SimAuto, fmt.Errorf("core: unknown similarity mode %q (want auto, exact, bitset, approx, or implicit)", s)
	}
}

// SimilarityClass partitions the tiers by the plan they produce: the two
// exact kernels yield bit-identical plans (one cache/plan-key class), while
// the approximate and implicit tiers each change the operator the
// eigensolver sees and therefore the resulting permutation.
type SimilarityClass byte

// The plan-equivalence classes of the similarity tiers.
const (
	SimClassExact SimilarityClass = iota
	SimClassApprox
	SimClassImplicit
)

// Class maps a resolved (non-auto) mode to its plan-equivalence class.
// SimAuto maps to the exact class; resolve it first when the distinction
// matters.
func (m SimilarityMode) Class() SimilarityClass {
	switch m {
	case SimApprox:
		return SimClassApprox
	case SimImplicit:
		return SimClassImplicit
	default:
		return SimClassExact
	}
}

// Selector thresholds for SimAuto, variables so tests can pin tiers on small
// inputs. Row counts pick the tier; the byte cap guards the exact tiers
// against similarity matrices whose degree-sum bound exceeds what the
// planner should ever materialize, overriding to the implicit operator.
var (
	// simBitsetMinRows is where the bitset kernels overtake the merge kernel:
	// below it the packing overhead dominates.
	simBitsetMinRows = 512
	// simApproxMinRows is where even the bitset-exact product is too much
	// work per plan and LSH sparsification takes over.
	simApproxMinRows = 8192
	// simImplicitMinRows is where forming any explicit S — even sparsified —
	// is not worth it and the matrix-free operator becomes the default.
	simImplicitMinRows = 65536
	// simExplicitBytesCap bounds the modeled size of an explicit exact S
	// (12 bytes per entry: int32 index + float64 count).
	simExplicitBytesCap = int64(1) << 28
	// simBitsetMinDensity gates the bitset kernels on matrix density: the
	// word-AND + popcount intersection only amortizes when a packed 64-bit
	// word carries at least one set bit on average. Below 1/64 the per-
	// candidate word merges cost more than the merge kernel's element walk,
	// so sparse mid-size inputs stay on SimExact.
	simBitsetMinDensity = 1.0 / 64
)

// resolveSimilarityMode resolves opts against the selector given the already
// computed hub threshold and column counts.
func resolveSimilarityMode(a *sparse.CSR, opts SpectralOptions, hub int, colCounts []int) SimilarityMode {
	if opts.Similarity != SimAuto {
		return opts.Similarity
	}
	n := a.Rows
	if n >= simImplicitMinRows {
		return SimImplicit
	}
	if n >= simApproxMinRows {
		return SimApprox
	}
	if sparse.EstimateSimilarityNNZ(a, hub, colCounts)*12 > simExplicitBytesCap {
		return SimImplicit
	}
	if n >= simBitsetMinRows && a.Cols > 0 &&
		float64(a.NNZ()) >= simBitsetMinDensity*float64(n)*float64(a.Cols) {
		return SimBitset
	}
	return SimExact
}

// EffectiveSimilarityMode resolves the tier a spectral pass over a with opts
// will run: an explicit mode wins, and SimAuto consults the size/density
// selector. The result is never SimAuto. Plan caching keys on the result's
// Class.
func EffectiveSimilarityMode(a *sparse.CSR, opts SpectralOptions) SimilarityMode {
	if opts.Similarity != SimAuto {
		return opts.Similarity
	}
	hub, colCounts := resolveHub(a, opts.HubThreshold)
	return resolveSimilarityMode(a, opts, hub, colCounts)
}

// lshParams resolves the LSH parameters for the approximate tier: the zero
// value selects the sparsifier defaults — single-row bands for low-Jaccard
// recall plus the per-row degree cap, with a fixed seed (determinism is part
// of the contract).
func lshParams(opts SpectralOptions) lsh.Params {
	if opts.LSH == (lsh.Params{}) {
		return lsh.SparsifyParams()
	}
	return opts.LSH
}

// buildSimilarityOperator constructs the normalized similarity operator for
// the resolved tier under a similarity stage span, returning the operator,
// its modeled similarity-phase bytes, and the tier that ran (recorded in
// bootes_similarity_mode_total). Shared by the single-k spectral pass and the
// sweep so the two cannot drift.
func buildSimilarityOperator(ctx context.Context, a *sparse.CSR, opts SpectralOptions) (eigen.Operator, int64, SimilarityMode, error) {
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	hub, colCounts := resolveHub(a, opts.HubThreshold)
	mode := resolveSimilarityMode(a, opts, hub, colCounts)
	if mode == SimImplicit {
		impl := eigen.NewImplicitSimilarityCappedWithCounts(a, hub, colCounts)
		obs.SimilarityModeUsed(ctx, mode.String())
		return impl, impl.At.ModeledBytes() + int64(a.Rows)*8*2, mode, nil // Āᵀ + two matvec temps
	}
	sim, simBytes, err := explicitSimilarity(ctx, a, opts, mode, hub, colCounts)
	if err != nil {
		return nil, 0, mode, err
	}
	return eigen.NewNormalizedSimilarity(sim), simBytes, mode, nil
}

// explicitSimilarity forms S for an explicit tier (exact, bitset or approx)
// through that tier's kernel, given the resolved hub cap and column counts,
// and returns it with the tier's modeled similarity-phase bytes. Auto-k
// calls it directly because refinement needs S itself, not an operator.
func explicitSimilarity(ctx context.Context, a *sparse.CSR, opts SpectralOptions, mode SimilarityMode, hub int, colCounts []int) (*sparse.CSR, int64, error) {
	var (
		sim   *sparse.CSR
		extra int64
		err   error
	)
	switch mode {
	case SimApprox:
		p := lshParams(opts)
		sim, err = lsh.SparsifiedSimilarity(ctx, a, hub, colCounts, p)
		extra = lsh.ModeledSparsifyBytes(a.Rows, p)
	case SimBitset:
		sim, err = sparse.SimilarityBitsetContext(ctx, a, hub, colCounts)
		extra = 2 * a.NNZ() * (4 + 8) // the two bit packs
	default: // SimExact
		sim, err = sparse.SimilarityContext(ctx, a, hub, colCounts)
	}
	if err != nil {
		return nil, 0, err
	}
	obs.SimilarityModeUsed(ctx, mode.String())
	return sim, sim.ModeledBytes() + extra, nil
}
