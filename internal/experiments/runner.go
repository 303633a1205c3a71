// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1-4, Figures 1-6, and the §5.1 decision-tree
// analysis). Each driver returns typed records — so tests can assert the
// paper's qualitative shapes — and renders the same rows/series the paper
// reports to a writer. cmd/benchsuite stitches the drivers into a full
// reproduction run.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bootes/internal/accel"
	"bootes/internal/core"
	"bootes/internal/dtree"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// Config controls a reproduction run.
type Config struct {
	// Scale shrinks every suite matrix (1 = the paper's Table 3 sizes).
	// The default 0.12 keeps a full reproduction under a few minutes while
	// preserving every qualitative shape.
	Scale float64
	// Seed drives all pseudo-randomness.
	Seed int64
	// Out receives the rendered report. nil discards it.
	Out io.Writer
	// Accelerators lists the simulated targets (default: the paper's three).
	Accelerators []accel.Config
	// Model is the trained decision tree used by Figure 3 and the Bootes
	// pipeline. nil lets drivers fall back to the heuristic gate or train
	// one on the fly where required.
	Model *dtree.Tree
	// SuiteIDs restricts Table 3 workloads to the listed IDs (nil = all).
	SuiteIDs []string
	// FigDir, when set, receives PGM renderings of the figure spy plots.
	FigDir string
	// Jobs bounds workload-level parallelism inside the drivers (the
	// benchsuite -jobs flag): each workload's full preprocess+simulate chain
	// runs as one job. ≤ 1 runs workloads sequentially; per-matrix kernels
	// still parallelize through internal/parallel either way. Results are
	// deterministic regardless of Jobs — every job is seeded independently
	// and outputs are merged in workload order.
	Jobs int
	// Similarity pins the similarity tier of every spectral pass the drivers
	// run (the benchsuite -similarity flag). The zero value (auto) resolves
	// per matrix (core.EffectiveSimilarityMode: the implicit operator, or
	// approx from 8 192 to 65 535 rows); set core.SimExact to force the
	// paper-literal kernel on every workload regardless of size.
	Similarity core.SimilarityMode
}

// spectral returns the driver-wide spectral options seeded with seed.
func (c Config) spectral(seed int64) core.SpectralOptions {
	return core.SpectralOptions{Seed: seed, Similarity: c.Similarity}
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.12
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if len(c.Accelerators) == 0 {
		c.Accelerators = accel.Targets()
	}
	return c
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// suite returns the (possibly restricted) Table 3 specs.
func (c Config) suite() []workloads.Spec {
	all := workloads.Table3()
	if len(c.SuiteIDs) == 0 {
		return all
	}
	var out []workloads.Spec
	for _, id := range c.SuiteIDs {
		if s, ok := workloads.ByID(id); ok {
			out = append(out, s)
		}
	}
	return out
}

// operands applies the paper's methodology: B is identical to A (square), or
// Aᵀ when A is rectangular, and is never reordered.
func operands(a *sparse.CSR) (*sparse.CSR, *sparse.CSR) {
	if a.Rows == a.Cols {
		return a, a
	}
	return a, sparse.Transpose(a)
}

// reorderers builds the comparison set for matrix a: Bootes plus the three
// baselines plus the no-reorder Original, in the paper's presentation order.
// Gamma's window W is sized per its Algorithm 1 definition — the number of
// (average) rows of B that fit in its home accelerator's cache, scaled with
// the experiment — since the GAMMA preprocessor targets GAMMA hardware.
func (c Config) reorderers(a *sparse.CSR) []reorder.Reorderer {
	w := 128
	if a != nil && a.NNZ() > 0 && a.Rows > 0 {
		avgRowBytes := float64(a.NNZ()) / float64(a.Rows) * 12
		cache := float64(accel.GAMMA.CacheBytes) * c.Scale
		if est := int(cache / avgRowBytes); est > 1 {
			w = est
		}
	}
	return []reorder.Reorderer{
		&core.Pipeline{Model: c.Model, Spectral: c.spectral(c.Seed)},
		reorder.Gamma{Seed: c.Seed, W: w},
		reorder.Graph{Seed: c.Seed},
		reorder.Hier{},
		reorder.Original{},
	}
}

// simulateWithPerm permutes A, runs the row-wise simulator, and returns the
// result. The permutation is applied to A only; B keeps its original order,
// matching the paper's setup.
func simulateWithPerm(cfg accel.Config, a, b *sparse.CSR, perm sparse.Permutation) (*accel.Result, error) {
	ap := a
	if !perm.IsIdentity() {
		var err error
		ap, err = sparse.PermuteRows(a, perm)
		if err != nil {
			return nil, err
		}
	}
	return accel.SimulateRowWise(cfg, ap, b)
}

// newRand builds a deterministic PRNG for a driver.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x0b57e5)) }

// trafficRatio returns B traffic under perm divided by B traffic in original
// order, using the row-granular LRU model with the given cache size. B
// follows the paper's operand rule.
func trafficRatio(a *sparse.CSR, perm sparse.Permutation, cacheBytes int64) (float64, error) {
	aOp, bOp := operands(a)
	const elem = 12
	base, err := trafficmodel.EstimateB(aOp, bOp, cacheBytes, elem)
	if err != nil {
		return 0, err
	}
	with, err := trafficmodel.EstimateBWithPerm(aOp, bOp, perm, cacheBytes, elem)
	if err != nil {
		return 0, err
	}
	if base.BTraffic == 0 {
		return 1, nil
	}
	return float64(with.BTraffic) / float64(base.BTraffic), nil
}

// RunRecord captures one (workload, reorderer, accelerator) simulation.
type RunRecord struct {
	Workload    string
	Reorderer   string
	Accelerator string
	Traffic     accel.Traffic
	Compulsory  accel.Traffic
	Cycles      int64
	Preprocess  time.Duration
	Footprint   int64
	Reordered   bool
}

// NormTotal returns total traffic normalized to compulsory traffic.
func (r RunRecord) NormTotal() float64 {
	ct := float64(r.Compulsory.Total())
	if ct == 0 {
		return 0
	}
	return float64(r.Traffic.Total()) / ct
}
