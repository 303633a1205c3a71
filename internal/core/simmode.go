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
// similarity operator — the matrix-free operator or one of three kernels
// that form S:
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
// SimAuto (the zero value) resolves to SimImplicit, or to SimApprox in the
// band simApproxMinRows ≤ n < simImplicitMinRows (EffectiveSimilarityMode).
// The exact and bitset kernels then serve explicit requests and auto-k,
// which refines S itself (similarityKernel).
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
// inputs. Two rules read them. The operator rule (EffectiveSimilarityMode)
// picks the normalized operator a fixed-k spectral pass runs: matrix-free
// except in the [simApproxMinRows, simImplicitMinRows) band. The S-kernel
// rule (similarityKernel) picks how auto-k materializes S for refinement,
// the one caller that needs S itself: rows and density pick a kernel, and
// the byte cap refuses any S whose degree-sum bound exceeds what the planner
// should ever materialize.
var (
	// simBitsetMinRows is where the bitset kernels overtake the merge kernel:
	// below it the packing overhead dominates.
	simBitsetMinRows = 512
	// simApproxMinRows starts the band in which LSH sparsification forms S,
	// for the fixed-k operator and auto-k's refinement alike: an exact S is
	// too much work per plan there.
	simApproxMinRows = 8192
	// simImplicitMinRows ends that band: from here not even a sparsified S
	// is worth forming, so auto-k declines and the operator is matrix-free.
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

// EffectiveSimilarityMode is the operator rule: the tier whose normalized
// operator a fixed-k spectral pass over a with opts runs. An explicit mode
// wins. SimAuto applies S matrix-free (SimImplicit) at every size except
// the [simApproxMinRows, simImplicitMinRows) band, which runs the
// LSH-sparsified S: below it two pattern passes over Ā per matvec beat
// forming S (up to Σ_c d_c² entries) and then one valued pass over it per
// matvec. The result is never SimAuto. Plan caching keys on its Class, the
// ladder starts from it, and a fixed-k plan reports it.
func EffectiveSimilarityMode(a *sparse.CSR, opts SpectralOptions) SimilarityMode {
	if opts.Similarity != SimAuto {
		return opts.Similarity
	}
	if n := a.Rows; n >= simApproxMinRows && n < simImplicitMinRows {
		return SimApprox
	}
	return SimImplicit
}

// AutoKKernelDiffers reports whether auto-k over a with opts may form S with
// a kernel other than the tier EffectiveSimilarityMode names: SimAuto below
// simApproxMinRows, where the operator is matrix-free but the S-kernel rule
// forms an exact-class S (unless the byte cap declines). Such a plan refines
// S and may select its own k, while an explicit SimImplicit auto-k request
// forms no S and keeps the tree's k; both resolve to the implicit class, so
// plan keys use this to set them apart.
func AutoKKernelDiffers(a *sparse.CSR, opts SpectralOptions) bool {
	return opts.Similarity == SimAuto && a.Rows < simApproxMinRows
}

// similarityKernel is the S-kernel rule: the tier auto-k materializes S
// with, given the already computed hub threshold and column counts. An
// explicit mode wins; SimAuto picks a kernel from size and density, and
// returns SimImplicit (form no S) from simImplicitMinRows rows or when the
// modeled bytes of an exact S exceed simExplicitBytesCap.
func similarityKernel(a *sparse.CSR, opts SpectralOptions, hub int, colCounts []int) SimilarityMode {
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

// buildSimilarityOperator constructs the normalized similarity operator for
// the tier EffectiveSimilarityMode resolves, under a similarity stage span,
// returning the operator, its modeled similarity-phase bytes, and the tier
// that ran (recorded in bootes_similarity_mode_total). Shared by the single-k
// spectral pass and the sweep so the two cannot drift.
func buildSimilarityOperator(ctx context.Context, a *sparse.CSR, opts SpectralOptions) (eigen.Operator, int64, SimilarityMode, error) {
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	hub, colCounts := resolveHub(a)
	mode := EffectiveSimilarityMode(a, opts)
	if mode == SimImplicit {
		impl := eigen.NewImplicitSimilarityCappedWithCounts(a, hub, colCounts)
		obs.SimilarityModeUsed(ctx, mode.String())
		return impl, impl.At.ModeledBytes() + int64(a.Rows)*8*2, mode, nil // Āᵀ + two matvec temps
	}
	sim, simBytes, err := explicitSimilarity(ctx, a, mode, hub, colCounts)
	if err != nil {
		return nil, 0, mode, err
	}
	return eigen.NewNormalizedSimilarity(sim), simBytes, mode, nil
}

// explicitSimilarity forms S for an explicit tier (exact, bitset or approx)
// through that tier's kernel, given the resolved hub cap and column counts,
// and returns it with the tier's modeled similarity-phase bytes. Auto-k
// calls it directly because refinement needs S itself, not an operator.
func explicitSimilarity(ctx context.Context, a *sparse.CSR, mode SimilarityMode, hub int, colCounts []int) (*sparse.CSR, int64, error) {
	var (
		sim   *sparse.CSR
		extra int64
		err   error
	)
	switch mode {
	case SimApprox:
		p := lsh.SparsifyParams()
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
