// Package bootes is a Go reproduction of "Bootes: Boosting the Efficiency of
// Sparse Accelerators Using Spectral Clustering" (Yadav & Asgari, MICRO'25).
//
// Bootes is a preprocessing stage for row-wise-product (Gustavson) SpGEMM
// accelerators: it reorders the rows of the input matrix A with spectral
// clustering so that rows with similar column supports become adjacent,
// maximizing the reuse of B's rows in the accelerator's cache and cutting
// off-chip memory traffic. A decision-tree cost model predicts, per matrix,
// whether reordering will pay off at all and which cluster count k to use.
//
// # Quick start
//
//	m, _ := bootes.ReadMatrixMarket(r)           // or build a Matrix directly
//	plan, _ := bootes.Plan(m, nil)               // gate + k selection + clustering
//	if plan.Reordered {
//	    pm, _ := plan.Apply(m)                   // permuted copy of A
//	    ... run SpGEMM with pm, then plan.Restore(c) on the output ...
//	}
//
// The packages under internal/ implement every subsystem from scratch:
// sparse kernels (internal/sparse), a thick-restart Lanczos eigensolver
// (internal/eigen), k-means (internal/cluster), the three baseline
// reorderers from the paper (internal/reorder), a CART decision tree
// (internal/dtree), a cache-accurate accelerator model (internal/accel), and
// the full experiment harness that regenerates the paper's tables and
// figures (internal/experiments, driven by cmd/benchsuite).
package bootes

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"bootes/internal/accel"
	"bootes/internal/core"
	"bootes/internal/dtree"
	"bootes/internal/plancache"
	"bootes/internal/planverify"
	"bootes/internal/refine"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// Matrix is a sparse matrix in CSR format. It aliases the internal
// representation; construct one with NewMatrix, FromCOO or ReadMatrixMarket.
type Matrix = sparse.CSR

// Permutation maps new row position to original row (perm[new] = old).
type Permutation = sparse.Permutation

// NewMatrix builds a validated CSR matrix. val may be nil for a
// pattern-only matrix (sufficient for all reordering operations).
func NewMatrix(rows, cols int, rowPtr []int64, col []int32, val []float64) (*Matrix, error) {
	return sparse.NewCSR(rows, cols, rowPtr, col, val)
}

// FromCOO builds a matrix from coordinate triples; duplicates are summed in
// input order.
func FromCOO(rows, cols int, i, j []int32, v []float64) (*Matrix, error) {
	if len(i) != len(j) || (v != nil && len(v) != len(i)) {
		return nil, errors.New("bootes: mismatched COO slice lengths")
	}
	coo := sparse.NewCOO(rows, cols, v == nil)
	for k := range i {
		val := 1.0
		if v != nil {
			val = v[k]
		}
		coo.Add(int(i[k]), int(j[k]), val)
	}
	return coo.ToCSR()
}

// ReadMatrixMarket parses a Matrix Market (coordinate) stream.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// WriteMatrixMarket writes m in Matrix Market coordinate form.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMatrixMarket(w, m) }

// ReadBinary parses a matrix in the library's compact binary (BCSR) format,
// about 5× faster to load than Matrix Market text.
func ReadBinary(r io.Reader) (*Matrix, error) { return sparse.ReadBinary(r) }

// WriteBinary writes m in the compact binary (BCSR) format.
func WriteBinary(w io.Writer, m *Matrix) error { return sparse.WriteBinary(w, m) }

// Options configures the Bootes pipeline.
type Options struct {
	// Model is a trained decision-tree gate (see TrainModel / LoadModel).
	// nil uses a structural heuristic instead.
	Model *Model
	// ForceReorder bypasses the gate and always reorders.
	ForceReorder bool
	// ForceK fixes the cluster count (must be one of CandidateKs) instead of
	// letting the gate choose. 0 lets the model/heuristic decide.
	ForceK int
	// AutoK enables eigengap-based automatic cluster-count selection: when
	// the gate approves reordering, the planner refines the explicit
	// similarity matrix with refine.Default() (crop-diagonal, 95th-percentile
	// thresholding, symmetrization, diffusion, row-max normalization), solves
	// its top spectrum, and picks k at the largest eigengap ratio within
	// [2, 64] instead of the fixed candidate set. An ambiguous spectrum falls
	// back to the gate's fixed k (recorded in ReorderPlan.AutoK, not a
	// degradation); a failed attempt degrades to the fixed-k ladder. Ignored
	// when ForceK is set. Auto-k plans cache under a distinct key.
	AutoK bool
	// Similarity selects how the spectral pass applies the similarity
	// S = Ā·Āᵀ: formed by the exact merge kernel, the packed-bitset exact
	// kernel or the LSH-sparsified approximation, or applied matrix-free by
	// the implicit operator. The zero value SimAuto runs the implicit
	// operator, except from 8 192 to 65 535 rows, where it runs the
	// approximation (see EffectiveSimilarityMode); auto-k still forms S for
	// its refinement, with a kernel picked from size and density. Exact and
	// bitset produce bit-identical plans; approximate and implicit plans are
	// valid bijections that may differ from them, so each class caches under
	// a distinct key.
	Similarity SimilarityMode
	// Seed makes the pipeline deterministic (Lanczos start vectors, k-means
	// seeding, feature sampling).
	Seed int64
	// Budget caps planning resources. The zero value imposes no limits.
	// Exceeding a cap never fails the plan: the pipeline degrades (cheaper
	// operator, smaller k, ultimately the identity permutation) and records
	// the trail in ReorderPlan.Degraded / DegradedReason.
	Budget Budget
	// Cache, when non-nil, is consulted before planning and durably stores
	// healthy (non-degraded) plans afterwards. The key covers the matrix's
	// sparsity structure and every option that shapes the plan, so a hit is
	// exactly the plan this call would have computed. Cache write failures
	// never fail the plan.
	Cache *PlanCache
	// Verify selects whether every plan is machine-checked before it is
	// returned or cached (internal/planverify): the permutation must be a
	// bijection of the right length, K must be a feasible cluster count
	// (a candidate count or an auto-k selection within [2, rows]),
	// Degraded must carry a reason, and — unless ForceReorder/ForceK bypassed
	// the gate — the traffic model must not predict the reordering moves more
	// bytes than the original order. A violating plan never surfaces: it
	// falls back to the identity permutation with the violation recorded in
	// DegradedReason. The zero value is VerifyOn.
	Verify VerifyMode
}

// SimilarityMode selects the similarity construction tier. See the constants
// below and Options.Similarity.
type SimilarityMode = core.SimilarityMode

// The similarity construction tiers, cheapest-guarantees last.
const (
	// SimAuto (the zero value) runs SimImplicit, or SimApprox from 8 192 to
	// 65 535 rows.
	SimAuto = core.SimAuto
	// SimExact materializes S with the merge-based SpGEMM kernel.
	SimExact = core.SimExact
	// SimBitset materializes S with packed row-support bitsets and
	// word-AND+popcount intersection — bit-identical to SimExact, faster on
	// matrices with clustered supports.
	SimBitset = core.SimBitset
	// SimApprox sparsifies S to LSH candidate pairs (MinHash banding) before
	// materializing: stored entries keep their exact intersection counts, but
	// dissimilar row pairs are dropped, shrinking the eigensolve.
	SimApprox = core.SimApprox
	// SimImplicit applies S as a matrix-free operator, y = Ā(Āᵀx): each
	// matvec makes two pattern passes over Ā instead of one valued pass over
	// an S of up to Σ_c d_c² entries (d_c the column degrees), and S is never
	// built. On the benchmark's workloads, all below 8 192 rows, it is the
	// fastest tier as well as the smallest, which is why SimAuto resolves to
	// it there.
	SimImplicit = core.SimImplicit
)

// ParseSimilarityMode maps a flag string ("auto", "exact", "bitset",
// "approx", "implicit"; "" means auto) to its SimilarityMode.
func ParseSimilarityMode(s string) (SimilarityMode, error) {
	return core.ParseSimilarityMode(s)
}

// EffectiveSimilarityMode reports the tier PlanContext would actually run
// for m under o (never SimAuto) — useful for tooling that wants to display
// or log the decision without planning.
func EffectiveSimilarityMode(m *Matrix, o *Options) SimilarityMode {
	var opts Options
	if o != nil {
		opts = *o
	}
	return core.EffectiveSimilarityMode(m, opts.spectralOptions())
}

// VerifyMode toggles the always-on plan verifier.
type VerifyMode int

// Verifier modes. VerifyOn is the zero value: plans are checked unless the
// caller explicitly opts out.
const (
	VerifyOn VerifyMode = iota
	VerifyOff
)

// Budget caps the resources one Plan/PlanContext call may consume.
type Budget struct {
	// MaxWallClock bounds planning wall time. On expiry the pipeline returns
	// an identity plan marked Degraded rather than an error; cancelling the
	// PlanContext context is still reported as ctx.Err().
	MaxWallClock time.Duration
	// MaxFootprintBytes bounds the modeled peak planning memory. Candidate
	// configurations whose upper-bound estimate exceeds it are skipped
	// before any similarity storage is allocated.
	MaxFootprintBytes int64
}

// CandidateKs are the cluster counts the pipeline chooses between.
func CandidateKs() []int { return append([]int(nil), core.CandidateKs...) }

// ReorderPlan is the outcome of planning: the permutation (identity when the
// gate declined) plus diagnostics.
type ReorderPlan struct {
	// Perm maps new row position to original row.
	Perm Permutation
	// Reordered is false when the cost model predicted no benefit.
	Reordered bool
	// K is the cluster count used (0 when not reordered).
	K int
	// PreprocessSeconds is the host-side planning time.
	PreprocessSeconds float64
	// FootprintBytes is the modeled peak preprocessing memory.
	FootprintBytes int64
	// Degraded reports that planning could not run its preferred
	// configuration and fell down the degradation ladder (lower-memory
	// operator, retried eigensolve, fixed small k, or identity). The plan is
	// still valid. DegradedReason records the trail.
	Degraded bool
	// DegradedReason is empty when Degraded is false.
	DegradedReason string
	// SimilarityMode names the similarity tier the spectral pass ran
	// ("exact", "bitset", "approx", "implicit"). Empty when no spectral pass
	// ran (gate decline, identity fallback).
	SimilarityMode string
	// AutoK records the eigengap auto-k outcome when Options.AutoK was set:
	// "selected: k=… gap-ratio=…" when the eigengap chose the cluster count,
	// "fallback-ambiguous: …" / "fallback-implicit: …" when selection
	// declined and the gate's fixed k was used (not a degradation),
	// "degraded" when the attempt failed and planning fell to the fixed-k
	// ladder, and "cached" on a cache hit (the outcome itself is not
	// persisted). Empty when auto-k was not requested.
	AutoK string
	// FromCache reports that the plan was served from Options.Cache;
	// PreprocessSeconds and FootprintBytes then describe the original
	// computation (what the hit saved), not this call.
	FromCache bool
}

// spectralOptions maps the public options to the core spectral
// configuration. planKey and PlanContext share it so the cache key and the
// executed pipeline can never disagree about an option.
func (o *Options) spectralOptions() core.SpectralOptions {
	return core.SpectralOptions{Seed: o.Seed, Similarity: o.Similarity}
}

// Plan runs the Bootes pipeline on m: extract features, consult the gate,
// and spectrally cluster if advised. opts may be nil for defaults. Plan is
// PlanContext with a background context.
func Plan(m *Matrix, opts *Options) (*ReorderPlan, error) {
	return PlanContext(context.Background(), m, opts)
}

// PlanContext is Plan with cooperative cancellation: the context is threaded
// through every phase (similarity construction, each Lanczos iteration, each
// k-means restart and iteration, every parallel chunk launch), so cancelling
// it makes planning return ctx.Err() promptly. A context that is already done
// returns before any similarity storage is allocated. Budgets and internal
// faults never surface as errors — they degrade the plan instead (see
// Options.Budget and ReorderPlan.Degraded).
func PlanContext(ctx context.Context, m *Matrix, opts *Options) (*ReorderPlan, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	var key string
	if o.Cache != nil {
		key = planKey(m, &o)
		if e, ok := o.Cache.c.Get(key); ok {
			// A hit is re-checked before it is trusted: a corrupt or degraded
			// entry (disk rot beyond the CRC, a foreign writer) is treated as
			// a miss and recomputed, never served.
			hitSound := true
			if o.Verify == VerifyOn {
				vs := planverify.CheckEntryFields(e.Perm, e.K, e.Reordered, e.Degraded, e.DegradedReason)
				if len(e.Perm) != m.Rows {
					vs = append(vs, planverify.Violation{Code: planverify.CodePermInvalid,
						Detail: fmt.Sprintf("entry for %d rows, matrix has %d", len(e.Perm), m.Rows)})
				}
				if len(vs) > 0 {
					planverify.Record(planverify.SitePlanHit, vs...)
					hitSound = false
				}
			}
			if hitSound {
				// K > 0 ⇔ a spectral pass produced the entry, so the tier it
				// ran is exactly what this call's options resolve to (the key
				// covers every option that changes the tier class).
				simMode := ""
				if e.K > 0 {
					simMode = core.EffectiveSimilarityMode(m, o.spectralOptions()).String()
				}
				autoK := ""
				if o.AutoK {
					// The key covers the auto-k request, so the entry was
					// planned with auto-k; the per-attempt outcome string
					// itself is not persisted.
					autoK = "cached"
				}
				return &ReorderPlan{
					Perm:              e.Perm,
					Reordered:         e.Reordered,
					K:                 e.K,
					PreprocessSeconds: e.PreprocessSeconds,
					FootprintBytes:    e.FootprintBytes,
					Degraded:          e.Degraded,
					DegradedReason:    e.DegradedReason,
					SimilarityMode:    simMode,
					AutoK:             autoK,
					FromCache:         true,
				}, nil
			}
		}
	}
	p := &core.Pipeline{
		Spectral:     o.spectralOptions(),
		ForceReorder: o.ForceReorder,
		ForceK:       o.ForceK,
		AutoK:        o.AutoK,
		Budget: core.Budget{
			MaxWallClock:      o.Budget.MaxWallClock,
			MaxFootprintBytes: o.Budget.MaxFootprintBytes,
		},
	}
	if o.Model != nil {
		p.Model = o.Model.tree
	}
	res, err := p.ReorderContext(ctx, m)
	if err != nil {
		return nil, err
	}
	if o.Verify == VerifyOn {
		// Always-on verification: structural invariants on every plan, plus
		// the never-regress traffic check on gate-approved reorderings. The
		// Force* options are explicit caller overrides of the gate (ablation
		// and labelling paths), so only the structural checks apply to them.
		res, _ = planverify.VerifyResult(planverify.SitePlan, m, res, &planverify.Config{
			Traffic: !o.ForceReorder && o.ForceK == 0,
		})
	}
	plan := &ReorderPlan{
		Perm:              res.Perm,
		Reordered:         res.Reordered,
		K:                 int(res.Extra["k"]),
		PreprocessSeconds: res.PreprocessTime.Seconds(),
		FootprintBytes:    res.FootprintBytes,
		Degraded:          res.Degraded,
		DegradedReason:    res.DegradedReason,
		SimilarityMode:    res.SimilarityMode,
		AutoK:             res.AutoK,
	}
	if o.Cache != nil && !plan.Degraded {
		// Degraded plans reflect the moment's faults, not the matrix; only
		// healthy plans are worth replaying. A failed write is a lost
		// amortization opportunity, never a planning failure.
		_ = o.Cache.c.Put(&plancache.Entry{
			Key:               key,
			Perm:              plan.Perm,
			Reordered:         plan.Reordered,
			K:                 plan.K,
			PreprocessSeconds: plan.PreprocessSeconds,
			FootprintBytes:    plan.FootprintBytes,
		})
	}
	return plan, nil
}

// PlanCache is a crash-safe persistent plan cache (see internal/plancache):
// entries are content-addressed, atomically written and checksummed, and
// corrupt files are quarantined rather than failing the open. Attach one via
// Options.Cache to amortize planning across processes and restarts.
type PlanCache struct{ c *plancache.Cache }

// OpenPlanCache loads (or creates) a plan cache directory. A directory
// damaged by crashes or bit rot still opens: unreadable entries are set
// aside, never fatal.
func OpenPlanCache(dir string) (*PlanCache, error) {
	c, err := plancache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &PlanCache{c: c}, nil
}

// PlanCacheStats counts cache activity since OpenPlanCache.
type PlanCacheStats = plancache.Stats

// Stats returns the cache's counters.
func (c *PlanCache) Stats() PlanCacheStats { return c.c.Stats() }

// Len returns the number of loadable entries.
func (c *PlanCache) Len() int { return c.c.Len() }

// MatrixKey returns the content hash of m's sparsity structure — the
// identity under which plans are cached and coalesced (values are excluded;
// planning consumes only the pattern).
func MatrixKey(m *Matrix) string { return plancache.KeyCSR(m) }

// planKey extends the matrix's structural hash with every option that
// changes the planned permutation, so one cache directory can serve callers
// with different seeds, forced configurations, or models without collisions.
// Budget is deliberately excluded: it only influences degraded plans, which
// are never cached. Verify is likewise excluded: verification never alters a
// healthy plan, and only healthy plans are cached.
//
// The similarity tier is keyed by its *class* (exact / approximate /
// implicit), resolved against this matrix: exact and bitset produce
// bit-identical plans and deliberately share a key, while an approximate or
// implicit request — whether explicit or auto-selected by size — keys
// separately because the permutation can legitimately differ. Default
// options key as the class they resolve to (implicit below 8 192 rows), so
// a default plan and an explicit implicit request share an entry. Auto-k is
// the exception: there a default request forms S and an implicit one does
// not, so the two key apart.
func planKey(m *Matrix, o *Options) string {
	h := sha256.New()
	h.Write([]byte(plancache.KeyCSR(m)))
	var opt [32]byte
	binary.LittleEndian.PutUint64(opt[0:], uint64(o.Seed))
	binary.LittleEndian.PutUint64(opt[8:], uint64(o.ForceK))
	if o.ForceReorder {
		opt[16] = 1
	}
	so := o.spectralOptions()
	switch core.EffectiveSimilarityMode(m, so).Class() {
	case core.SimClassImplicit:
		opt[17] = 1
	case core.SimClassApprox:
		opt[18] = 1
	}
	// Auto-k keys separately from fixed-k planning. The refinement recipe
	// is fixed, but its ops and threshold percentile stay in the key so
	// auto-k keys are unchanged from releases where the recipe was an option.
	if o.AutoK {
		opt[19] = 1
		// A default auto-k plan below the approximate row band refines an
		// exact S and may select its own k, while an explicit implicit
		// request forms no S and keeps the tree's k: same class, different
		// plans.
		if core.AutoKKernelDiffers(m, so) {
			opt[21] = 1
		}
		r := refine.Default()
		var flags byte
		if r.CropDiagonal {
			flags |= 1 << 0
		}
		if r.ThresholdP > 0 {
			flags |= 1 << 1
		}
		if r.Symmetrize {
			flags |= 1 << 2
		}
		if r.Diffuse {
			flags |= 1 << 3
		}
		if r.RowMaxNorm {
			flags |= 1 << 4
		}
		opt[20] = flags
		binary.LittleEndian.PutUint64(opt[24:], math.Float64bits(r.ThresholdP))
	}
	h.Write(opt[:])
	if o.Model != nil {
		if enc, err := o.Model.Encode(); err == nil {
			h.Write(enc)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Apply returns a copy of m with rows in the plan's order.
func (p *ReorderPlan) Apply(m *Matrix) (*Matrix, error) {
	return sparse.PermuteRows(m, p.Perm)
}

// Restore undoes the plan's row reordering on a matrix whose rows are in the
// reordered frame — typically the SpGEMM output C, whose row order follows
// A's (the paper's post-processing step).
func (p *ReorderPlan) Restore(m *Matrix) (*Matrix, error) {
	return sparse.UnpermuteRows(m, p.Perm)
}

// ApplySymmetric returns P·m·Pᵀ for a square matrix: rows and columns are
// relabelled together. Use it for self-product workloads (C = A·Aᵀ with
// both operands reordered, graph adjacency analyses) where the row and
// column spaces are the same entity.
func (p *ReorderPlan) ApplySymmetric(m *Matrix) (*Matrix, error) {
	return sparse.PermuteSymmetric(m, p.Perm)
}

// Model is a trained decision-tree gate.
type Model struct{ tree *dtree.Tree }

// LoadModel parses a model serialized by Model.Encode.
func LoadModel(data []byte) (*Model, error) {
	t, err := dtree.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Model{tree: t}, nil
}

// Encode serializes the model to JSON (~a few KB).
func (m *Model) Encode() ([]byte, error) { return m.tree.Encode() }

// SizeBytes returns the serialized model size.
func (m *Model) SizeBytes() int64 { return m.tree.ModeledBytes() }

// Baseline identifies one of the paper's comparison reorderers.
type Baseline int

// The comparison reorderers evaluated by the paper.
const (
	// BaselineOriginal performs no reordering.
	BaselineOriginal Baseline = iota
	// BaselineGamma is GAMMA's windowed greedy algorithm (Alg. 1).
	BaselineGamma
	// BaselineGraph is the FSpGEMM similarity-graph greedy walk (Alg. 2).
	BaselineGraph
	// BaselineHier is LSH-seeded hierarchical clustering (Alg. 3).
	BaselineHier
)

// ReorderBaseline runs one of the paper's baseline algorithms on m.
func ReorderBaseline(m *Matrix, b Baseline, seed int64) (*ReorderPlan, error) {
	var r reorder.Reorderer
	switch b {
	case BaselineOriginal:
		r = reorder.Original{}
	case BaselineGamma:
		r = reorder.Gamma{Seed: seed}
	case BaselineGraph:
		r = reorder.Graph{Seed: seed}
	case BaselineHier:
		r = reorder.Hier{}
	default:
		return nil, fmt.Errorf("bootes: unknown baseline %d", b)
	}
	res, err := r.Reorder(m)
	if err != nil {
		return nil, err
	}
	return &ReorderPlan{
		Perm:              res.Perm,
		Reordered:         res.Reordered,
		PreprocessSeconds: res.PreprocessTime.Seconds(),
		FootprintBytes:    res.FootprintBytes,
	}, nil
}

// Accelerator identifies a simulated accelerator target.
type Accelerator int

// The paper's three target accelerators.
const (
	// Flexagon has a 1 MB shared cache and 67 PEs.
	Flexagon Accelerator = iota
	// GAMMA has a 3 MB shared cache and 64 PEs.
	GAMMA
	// Trapezoid has a 4 MB shared cache and 128 PEs.
	Trapezoid
)

func (a Accelerator) config() (accel.Config, error) {
	switch a {
	case Flexagon:
		return accel.Flexagon, nil
	case GAMMA:
		return accel.GAMMA, nil
	case Trapezoid:
		return accel.Trapezoid, nil
	default:
		return accel.Config{}, fmt.Errorf("bootes: unknown accelerator %d", a)
	}
}

// String names the accelerator.
func (a Accelerator) String() string {
	cfg, err := a.config()
	if err != nil {
		return "Unknown"
	}
	return cfg.Name
}

// TrafficReport is the off-chip traffic of one simulated SpGEMM.
type TrafficReport struct {
	// ABytes/BBytes/CBytes split traffic by operand.
	ABytes, BBytes, CBytes int64
	// CompulsoryBytes is the unbounded-cache lower bound.
	CompulsoryBytes int64
	// Flops counts multiply-accumulates; OutputNNZ is nnz(C).
	Flops, OutputNNZ int64
	// Cycles is the roofline execution estimate; Seconds converts it at the
	// accelerator's clock.
	Cycles  int64
	Seconds float64
}

// TotalBytes returns the summed off-chip traffic.
func (t TrafficReport) TotalBytes() int64 { return t.ABytes + t.BBytes + t.CBytes }

// Simulate runs C = A·B with the row-wise-product dataflow on the given
// accelerator model and reports off-chip traffic and a cycle estimate.
func Simulate(a Accelerator, ma, mb *Matrix) (*TrafficReport, error) {
	cfg, err := a.config()
	if err != nil {
		return nil, err
	}
	res, err := accel.SimulateRowWise(cfg, ma, mb)
	if err != nil {
		return nil, err
	}
	return &TrafficReport{
		ABytes:          res.Traffic.ABytes,
		BBytes:          res.Traffic.BBytes,
		CBytes:          res.Traffic.CBytes,
		CompulsoryBytes: res.Compulsory.Total(),
		Flops:           res.Flops,
		OutputNNZ:       res.OutputNNZ,
		Cycles:          res.Cycles,
		Seconds:         res.Seconds(),
	}, nil
}

// SpGEMM computes C = A·B with Gustavson's row-wise product on the host
// (numeric, not simulated). Pattern inputs are treated as all-ones.
func SpGEMM(a, b *Matrix) (*Matrix, error) { return sparse.SpGEMM(a, b) }
