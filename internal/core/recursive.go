package core

import (
	"context"
	"fmt"
	"time"

	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// Recursive is an extension of the spectral reorderer (DESIGN.md §5): after
// the top-level k-way clustering, any cluster larger than MaxClusterRows is
// extracted as a submatrix and spectrally reordered again, recursively. This
// addresses the regime where the natural group count exceeds the largest
// candidate k (k=32): a flat clustering merges several groups per cluster,
// while the recursion teases them apart at logarithmic extra cost.
type Recursive struct {
	// K is the branching factor per level (a CandidateKs value; default 8).
	K int
	// MaxClusterRows stops recursion once clusters are at most this many
	// rows (default 256).
	MaxClusterRows int
	// MaxDepth bounds recursion depth (default 4).
	MaxDepth int
	// Opts carries the base spectral options.
	Opts SpectralOptions
}

func (r Recursive) withDefaults() Recursive {
	if r.K == 0 {
		r.K = 8
	}
	if r.MaxClusterRows == 0 {
		r.MaxClusterRows = 256
	}
	if r.MaxDepth == 0 {
		r.MaxDepth = 4
	}
	return r
}

// Name implements reorder.Reorderer.
func (r Recursive) Name() string { return fmt.Sprintf("BootesRec(k=%d)", r.withDefaults().K) }

// Reorder implements reorder.Reorderer.
func (r Recursive) Reorder(a *sparse.CSR) (*reorder.Result, error) {
	return r.ReorderContext(context.Background(), a)
}

// ReorderContext is Reorder with cooperative cancellation: the context is
// checked at every recursion node (and inside each node's spectral pass), so
// a cancelled recursion abandons unexplored subtrees and returns ctx.Err().
func (r Recursive) ReorderContext(ctx context.Context, a *sparse.CSR) (*reorder.Result, error) {
	r = r.withDefaults()
	start := time.Now()
	perm, foot, err := r.reorderRows(ctx, a, 0)
	if err != nil {
		return nil, err
	}
	if err := perm.Validate(a.Rows); err != nil {
		return nil, fmt.Errorf("core: recursive reorder produced invalid permutation: %w", err)
	}
	return &reorder.Result{
		Perm:           perm,
		PreprocessTime: time.Since(start),
		FootprintBytes: foot,
		Reordered:      !perm.IsIdentity(),
		Extra:          map[string]float64{"k": float64(r.K)},
	}, nil
}

// reorderRows reorders a (which may be a submatrix view) and recurses into
// oversized clusters. It returns a permutation over a's rows and the peak
// modeled footprint seen in the subtree.
func (r Recursive) reorderRows(ctx context.Context, a *sparse.CSR, depth int) (sparse.Permutation, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	n := a.Rows
	if n <= r.MaxClusterRows || depth >= r.MaxDepth || n < 2*r.K {
		return sparse.IdentityPerm(n), int64(n) * 4, nil
	}
	opts := r.Opts
	opts.K = r.K
	sr, err := Spectral{Opts: opts}.ReorderContext(ctx, a)
	if err != nil {
		return nil, 0, err
	}
	peak := sr.FootprintBytes

	// Group rows by cluster in the order the top-level permutation chose,
	// then recurse into each oversized cluster.
	clusterOf := sr.Assign
	// Segment sr.Perm into runs of equal cluster id (PermutationFromAssignment
	// lays clusters out contiguously).
	var out sparse.Permutation
	for lo := 0; lo < n; {
		hi := lo + 1
		c := clusterOf[sr.Perm[lo]]
		for hi < n && clusterOf[sr.Perm[hi]] == c {
			hi++
		}
		segment := sr.Perm[lo:hi]
		if len(segment) > r.MaxClusterRows && depth+1 < r.MaxDepth {
			sub, err := sparse.ExtractRows(a, segment)
			if err != nil {
				return nil, 0, err
			}
			subPerm, subFoot, err := r.reorderRows(ctx, sub, depth+1)
			if err != nil {
				return nil, 0, err
			}
			if subFoot > peak {
				peak = subFoot
			}
			for _, idx := range subPerm {
				out = append(out, segment[idx])
			}
		} else {
			out = append(out, segment...)
		}
		lo = hi
	}
	return out, peak, nil
}

var _ reorder.Reorderer = Recursive{}
