package core

import (
	"math"
	"math/rand"

	"bootes/internal/sparse"
	"bootes/internal/stats"
)

// Features is the structural fingerprint the decision tree consumes (paper
// §3.2): global sparsity, the variance of nonzeros per row and per column,
// and intersection metrics capturing structural overlap between rows. The
// paper's "intersection average / variation in intersection" are computed
// over *coupled* row pairs — pairs that share at least one column, found via
// Aᵀ — because those are the pairs whose overlap reordering can exploit.
// Two additional locality features (AdjacentAvg, InterAvg over uniform
// pairs) let the model distinguish "similar rows already adjacent" (banded;
// reordering useless) from "similar rows far apart" (reordering pays), and
// two size proxies (log₂ rows, log₂ nnz) capture the working-set scale the
// paper notes influences the optimal k.
type Features struct {
	// Density is the ratio of nonzero to total elements (global sparsity).
	Density float64
	// RowNNZVar and ColNNZVar are the variances of nonzeros per row/column,
	// normalized by the squared mean (coefficient of variation squared) so
	// they are comparable across matrix sizes.
	RowNNZVar float64
	ColNNZVar float64
	// InterAvg is the average Jaccard overlap of uniformly sampled row
	// pairs — the global degree of shared nonzero positions.
	InterAvg float64
	// InterVar is the variance of those overlaps.
	InterVar float64
	// CoupledAvg is the mean Jaccard overlap of sampled row pairs that
	// share at least one column — the paper's intersection average.
	CoupledAvg float64
	// CoupledVar is the variance of the coupled overlaps — whether the
	// overlap follows a consistent pattern or varies widely.
	CoupledVar float64
	// AdjacentAvg is the mean Jaccard overlap of consecutive rows (i, i+1)
	// in the current order: high values mean the order is already good.
	AdjacentAvg float64
	// Rows is log2 of the row count (size proxy).
	Rows float64
	// NNZ is log2 of the stored entry count (working-set proxy).
	NNZ float64
	// Aspect is rows/cols.
	Aspect float64
	// AvgRowNNZ is the mean nonzeros per row.
	AvgRowNNZ float64
}

// FeatureNames lists the feature vector layout used by Vector().
var FeatureNames = []string{
	"density", "rowNNZVar", "colNNZVar", "interAvg", "interVar",
	"coupledAvg", "coupledVar", "adjacentAvg",
	"log2Rows", "log2NNZ", "aspect", "avgRowNNZ",
}

// Vector flattens the features in FeatureNames order for the decision tree.
func (f Features) Vector() []float64 {
	return []float64{
		f.Density, f.RowNNZVar, f.ColNNZVar, f.InterAvg, f.InterVar,
		f.CoupledAvg, f.CoupledVar, f.AdjacentAvg,
		f.Rows, f.NNZ, f.Aspect, f.AvgRowNNZ,
	}
}

// featurePairs is the number of random row pairs each sampled intersection
// metric draws.
const featurePairs = 512

// ExtractFeatures computes the structural fingerprint of a. Its pair
// sampling has one fixed seed, so the gate, the labeller that trains it and
// `bootes analyze` all see the same features for the same matrix.
func ExtractFeatures(a *sparse.CSR) Features {
	n := a.Rows
	var f Features
	f.Density = a.Density()
	if a.Cols > 0 {
		f.Aspect = float64(n) / float64(a.Cols)
	}
	f.Rows = log2(float64(n) + 1)

	rowCounts := make([]float64, n)
	for i := 0; i < n; i++ {
		rowCounts[i] = float64(a.RowNNZ(i))
	}
	colCountsInt := sparse.ColCounts(a)
	colCounts := make([]float64, len(colCountsInt))
	for i, c := range colCountsInt {
		colCounts[i] = float64(c)
	}
	f.AvgRowNNZ = stats.Mean(rowCounts)
	f.RowNNZVar = normalizedVariance(rowCounts)
	f.ColNNZVar = normalizedVariance(colCounts)

	f.NNZ = log2(float64(a.NNZ()) + 1)

	if n >= 2 {
		rng := rand.New(rand.NewSource(0xfea7))

		// Uniform-pair overlap: global similarity level. Empty-row pairs
		// contribute zero, correctly signalling "nothing to align".
		overlaps := make([]float64, 0, featurePairs)
		for s := 0; s < featurePairs; s++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				j = (j + 1) % n
			}
			overlaps = append(overlaps, sparse.Jaccard(a, i, j))
		}
		f.InterAvg = stats.Mean(overlaps)
		f.InterVar = stats.Variance(overlaps)

		// Coupled-pair overlap: sample a nonzero, walk its column through
		// Aᵀ, and pick another row touching the same column. These are the
		// pairs reordering could bring together.
		at := sparse.Transpose(a.Pattern())
		coupled := make([]float64, 0, featurePairs)
		nnz := a.NNZ()
		if nnz > 0 {
			for s := 0; s < featurePairs; s++ {
				i := rng.Intn(n)
				row := a.Row(i)
				if len(row) == 0 {
					coupled = append(coupled, 0)
					continue
				}
				c := row[rng.Intn(len(row))]
				peers := at.Row(int(c))
				j := int(peers[rng.Intn(len(peers))])
				if j == i {
					coupled = append(coupled, 1) // only itself: perfect reuse
					continue
				}
				coupled = append(coupled, sparse.Jaccard(a, i, j))
			}
			f.CoupledAvg = stats.Mean(coupled)
			f.CoupledVar = stats.Variance(coupled)
		}

		// Adjacent-row overlap in the current order.
		adj := make([]float64, 0, featurePairs)
		for s := 0; s < featurePairs; s++ {
			i := rng.Intn(n - 1)
			adj = append(adj, sparse.Jaccard(a, i, i+1))
		}
		f.AdjacentAvg = stats.Mean(adj)
	}
	return f
}

// normalizedVariance returns Var(x)/Mean(x)² (0 when the mean is 0),
// a size-invariant skewness measure.
func normalizedVariance(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.Variance(xs) / (m * m)
}

func log2(x float64) float64 { return math.Log2(x) }
