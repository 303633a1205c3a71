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
	// heuristic stands in (reorder unless row overlap is negligible or the
	// current order already realizes it; k = UntrainedK for every approved
	// matrix), so the pipeline is usable before training.
	Model *dtree.Tree
	// Spectral carries the base spectral options; K is overridden by the
	// model's prediction.
	Spectral SpectralOptions
	// ForceReorder bypasses the gate (used by ablations and the labeller).
	ForceReorder bool
	// ForceK overrides the predicted cluster count when > 0.
	ForceK int
}

// Name implements reorder.Reorderer.
func (p *Pipeline) Name() string { return "Bootes" }

// Decide runs only the gating step: it returns the predicted class.
func (p *Pipeline) Decide(a *sparse.CSR) (label int, err error) {
	feats := ExtractFeatures(a)
	if p.Model == nil {
		return heuristicLabel(feats), nil
	}
	return p.Model.Predict(feats.Vector())
}

// UntrainedK is the cluster count the untrained gate serves to every matrix
// it approves, whatever its size. The eigensolve dominates a plan and grows
// with k (a k=32 plan costs about 3× a k=8 one), while on e2ebench's cold
// corpora k=8 models less B traffic than k=32 at 64 and 256 KiB caches and
// stays within about a point of the per-matrix best k. It loses at 16 KiB
// on larger matrices with many clusters or 3-D stencils, where k=16 or 32
// fits the cache better (EXPERIMENTS.md, "KP — untrained-gate k").
const UntrainedK = 8

// heuristicLabel is the untrained fallback policy: reorder only when coupled
// rows overlap strongly AND the current order does not already realize that
// overlap (adjacent rows dissimilar) — the banded/FEM versus scrambled-block
// distinction. An approved matrix is reordered at UntrainedK.
func heuristicLabel(f Features) int {
	if f.CoupledAvg < 0.05 {
		return ClassNoReorder // nothing substantial to align
	}
	if f.AdjacentAvg > 0.8*f.CoupledAvg {
		return ClassNoReorder // the existing order already captures it
	}
	label, _ := LabelForK(UntrainedK)
	return label
}

// Reorder implements reorder.Reorderer: gate, then spectrally reorder. It is
// ReorderContext (degrade.go) with a background context — the same ladder and
// panic containment apply, and with no faults the result is bit-identical to
// the pre-ladder pipeline.
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
