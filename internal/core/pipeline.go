package core

import (
	"context"
	"fmt"

	"bootes/internal/dtree"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// Decision-tree class encoding: class 0 means "do not reorder"; class 1+i
// means "reorder with k = CandidateKs[i]".
const (
	ClassNoReorder = 0
	// NumClasses is 1 (no-reorder) + len(CandidateKs).
	NumClasses = 6
)

// LabelForK returns the class label for cluster count k.
func LabelForK(k int) (int, error) {
	for i, c := range CandidateKs {
		if c == k {
			return 1 + i, nil
		}
	}
	return 0, fmt.Errorf("core: k=%d is not a candidate cluster count", k)
}

// KForLabel returns the cluster count for a class label (0 for no-reorder).
func KForLabel(label int) (int, error) {
	if label == ClassNoReorder {
		return 0, nil
	}
	if label < 1 || label > len(CandidateKs) {
		return 0, fmt.Errorf("core: label %d out of range", label)
	}
	return CandidateKs[label-1], nil
}

// Pipeline is the full Bootes preprocessing flow (paper §3.2 workflow
// summary): extract structural features, consult the decision tree, and —
// when reordering is predicted to pay off — run spectral clustering with the
// predicted k. It implements reorder.Reorderer so it can be compared
// directly against the baselines.
type Pipeline struct {
	// Model is the trained cost/benefit predictor. When nil, a structural
	// heuristic stands in (reorder unless row overlap is negligible; pick k
	// by matrix size), so the pipeline is usable before training.
	Model *dtree.Tree
	// Spectral carries the base spectral options; K is overridden by the
	// model's prediction.
	Spectral SpectralOptions
	// Features controls fingerprint extraction.
	Features FeatureOptions
	// ForceReorder bypasses the gate (used by ablations and the labeller).
	ForceReorder bool
	// ForceK overrides the predicted cluster count when > 0.
	ForceK int
	// AutoK attempts eigengap-based cluster-count selection over the refined
	// similarity before the fixed-k ladder (see attemptAutoK). Ignored when
	// ForceK is set.
	AutoK bool
	// Budget caps planning resources (wall clock, modeled peak memory). The
	// zero value imposes no limits; exceeding a cap degrades the plan (see
	// ReorderContext) rather than failing it.
	Budget Budget
}

// Name implements reorder.Reorderer.
func (p *Pipeline) Name() string { return "Bootes" }

// Decide runs only the gating step: it returns the predicted class.
func (p *Pipeline) Decide(a *sparse.CSR) (label int, feats Features, err error) {
	feats = ExtractFeatures(a, p.Features)
	if p.Model == nil {
		return heuristicLabel(a, feats), feats, nil
	}
	label, err = p.Model.Predict(feats.Vector())
	return label, feats, err
}

// heuristicLabel is the untrained fallback policy: reorder only when coupled
// rows overlap strongly AND the current order does not already realize that
// overlap (adjacent rows dissimilar) — the banded/FEM versus scrambled-block
// distinction. k then scales with matrix size.
func heuristicLabel(a *sparse.CSR, f Features) int {
	if f.CoupledAvg < 0.05 {
		return ClassNoReorder // nothing substantial to align
	}
	if f.AdjacentAvg > 0.8*f.CoupledAvg {
		return ClassNoReorder // the existing order already captures it
	}
	// Scale k with matrix size: roughly one cluster per few hundred rows,
	// clamped to the candidate set. Over-clustering is cheap insurance —
	// the Fiedler-sorted cluster layout keeps related clusters adjacent —
	// while under-clustering mixes unrelated row groups.
	k := 32
	switch {
	case a.Rows < 256:
		k = 4
	case a.Rows < 512:
		k = 8
	case a.Rows < 1024:
		k = 16
	}
	label, _ := LabelForK(k)
	return label
}

// Reorder implements reorder.Reorderer: gate, then spectrally reorder. It is
// ReorderContext (degrade.go) with a background context — the same ladder and
// panic containment apply, and with no faults and a zero Budget the result is
// bit-identical to the pre-ladder pipeline.
func (p *Pipeline) Reorder(a *sparse.CSR) (*reorder.Result, error) {
	return p.ReorderContext(context.Background(), a)
}

func modelBytes(t *dtree.Tree) int64 {
	if t == nil {
		return 0
	}
	return t.ModeledBytes()
}

// Interface check: the pipeline is a drop-in Reorderer.
var _ reorder.Reorderer = (*Pipeline)(nil)
