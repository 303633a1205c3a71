// Package refine implements the affinity-refinement pipeline the eigengap
// selector (core.EigengapK) runs over the CSR similarity matrix before
// eigengap analysis: crop-diagonal, per-row 95th-percentile thresholding,
// symmetrization (elementwise max with the transpose), diffusion S·Sᵀ, and
// row-max renormalization. The ops mirror the SpectralCluster production recipe
// (minus the gaussian blur, which only makes sense for dense affinities) and
// Apply composes them in one fixed order.
//
// Every op is a pure function: inputs are never mutated, outputs are freshly
// allocated valued CSR matrices. Per-row work runs through internal/parallel
// with fixed-grain chunking and disjoint writes, so results are bit-identical
// for every BOOTES_WORKERS setting — the same determinism contract as the
// rest of the planning pipeline. All ops are permutation-equivariant:
// refine(P·S·Pᵀ) = P·refine(S)·Pᵀ for any row/column relabeling P, which the
// metamorphic suite asserts.
package refine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// Errors returned by the pipeline.
var (
	// ErrNotSquare reports a non-square affinity matrix; every refinement op
	// is defined on row-to-row similarity, which is square by construction.
	ErrNotSquare = errors.New("refine: affinity matrix must be square")
	// ErrBadPercentile reports a thresholding percentile outside [0, 1).
	ErrBadPercentile = errors.New("refine: percentile must be in [0, 1)")
)

// rowGrain is the fixed parallel chunk size for per-row ops. Chunk boundaries
// depend only on (rows, rowGrain), never on the worker count.
const rowGrain = 256

// Percentile is the recipe's per-row thresholding percentile: entries below
// a row's 95th-percentile value are dropped.
const Percentile = 0.95

// Apply runs the refinement recipe over s and returns the refined affinity
// matrix (always valued, never sharing storage with s). The ops apply in a
// fixed order: CropDiagonal → RowThreshold at Percentile → Symmetrize →
// Diffuse → RowMaxNorm → Symmetrize. The final symmetrize restores value
// symmetry after the per-row scaling: max(S, Sᵀ) keeps every value ≤ 1 and
// each non-empty row's unit maximum, so the eigensolver sees a symmetric
// operator and rows stay max-1. s must be a valid square CSR; Apply
// validates rather than trusting the caller, so hostile inputs surface as
// errors, never panics. The context is checked before each op;
// mid-pipeline cancellation returns ctx.Err().
func Apply(ctx context.Context, s *sparse.CSR) (*sparse.CSR, error) {
	if s == nil {
		return nil, errors.New("refine: nil matrix")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("refine: invalid affinity matrix: %w", err)
	}
	if s.Rows != s.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, s.Rows, s.Cols)
	}
	out := valued(s)
	for _, op := range []func(*sparse.CSR) (*sparse.CSR, error){
		func(m *sparse.CSR) (*sparse.CSR, error) { return CropDiagonal(m), nil },
		func(m *sparse.CSR) (*sparse.CSR, error) { return RowThreshold(m, Percentile) },
		Symmetrize,
		Diffuse,
		func(m *sparse.CSR) (*sparse.CSR, error) { return RowMaxNorm(m), nil },
		Symmetrize,
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := op(out)
		if err != nil {
			return nil, err
		}
		out = next
	}
	return out, nil
}

// valued returns s itself when it already stores values, else a copy with
// every stored entry set to 1 (pattern similarity matrices are implicit-1).
func valued(s *sparse.CSR) *sparse.CSR {
	if s.Val != nil {
		return s
	}
	c := s.Clone()
	c.Val = make([]float64, len(c.Col))
	for i := range c.Val {
		c.Val[i] = 1
	}
	return c
}

// CropDiagonal returns s with all diagonal entries removed: self-similarity
// otherwise dominates every row and flattens the spectrum's gap structure.
func CropDiagonal(s *sparse.CSR) *sparse.CSR {
	s = valued(s)
	n := s.Rows
	keep := make([]int64, n+1)
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cnt := int64(0)
			for _, c := range s.Row(i) {
				if int(c) != i {
					cnt++
				}
			}
			keep[i+1] = cnt
		}
	})
	for i := 0; i < n; i++ {
		keep[i+1] += keep[i]
	}
	col := make([]int32, keep[n])
	val := make([]float64, keep[n])
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := keep[i]
			rc, rv := s.Row(i), s.RowVals(i)
			for k, c := range rc {
				if int(c) != i {
					col[p] = c
					val[p] = rv[k]
					p++
				}
			}
		}
	})
	return &sparse.CSR{Rows: n, Cols: s.Cols, RowPtr: keep, Col: col, Val: val}
}

// RowThreshold applies per-row p-percentile thresholding: for each row the
// nearest-rank p-quantile of the row's values becomes the cutoff, and entries
// strictly below it are dropped. p must be in [0, 1); p = 0 keeps everything.
// The cutoff is non-decreasing in p, so thresholding is monotone: a larger p
// never keeps an entry a smaller p dropped, and nnz never increases.
func RowThreshold(s *sparse.CSR, p float64) (*sparse.CSR, error) {
	if !(p >= 0 && p < 1) { // NaN-safe: NaN fails both comparisons
		return nil, fmt.Errorf("%w: %g", ErrBadPercentile, p)
	}
	s = valued(s)
	n := s.Rows
	keep := make([]int64, n+1)
	cut := make([]float64, n)
	parallel.For(n, rowGrain, func(lo, hi int) {
		var scratch []float64
		for i := lo; i < hi; i++ {
			rv := s.RowVals(i)
			if len(rv) == 0 {
				continue
			}
			scratch = append(scratch[:0], rv...)
			sort.Float64s(scratch)
			// Nearest-rank quantile over the sorted row values: index
			// floor(p·len), clamped. All-equal rows keep every entry.
			idx := int(p * float64(len(scratch)))
			if idx >= len(scratch) {
				idx = len(scratch) - 1
			}
			cut[i] = scratch[idx]
			cnt := int64(0)
			for _, v := range rv {
				if v >= cut[i] {
					cnt++
				}
			}
			keep[i+1] = cnt
		}
	})
	for i := 0; i < n; i++ {
		keep[i+1] += keep[i]
	}
	col := make([]int32, keep[n])
	val := make([]float64, keep[n])
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			q := keep[i]
			rc, rv := s.Row(i), s.RowVals(i)
			for k, v := range rv {
				if v >= cut[i] {
					col[q] = rc[k]
					val[q] = v
					q++
				}
			}
		}
	})
	return &sparse.CSR{Rows: n, Cols: s.Cols, RowPtr: keep, Col: col, Val: val}, nil
}

// Symmetrize returns max(S, Sᵀ) elementwise — the union pattern with each
// entry's value the larger of the two orientations. Idempotent: symmetrizing
// a symmetric matrix returns an identical matrix.
func Symmetrize(s *sparse.CSR) (*sparse.CSR, error) {
	if s.Rows != s.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, s.Rows, s.Cols)
	}
	s = valued(s)
	t := sparse.Transpose(s)
	n := s.Rows
	keep := make([]int64, n+1)
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keep[i+1] = int64(mergedLen(s.Row(i), t.Row(i)))
		}
	})
	for i := 0; i < n; i++ {
		keep[i+1] += keep[i]
	}
	col := make([]int32, keep[n])
	val := make([]float64, keep[n])
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := keep[i]
			ac, av := s.Row(i), s.RowVals(i)
			bc, bv := t.Row(i), t.RowVals(i)
			x, y := 0, 0
			for x < len(ac) || y < len(bc) {
				switch {
				case y == len(bc) || (x < len(ac) && ac[x] < bc[y]):
					col[p], val[p] = ac[x], av[x]
					x++
				case x == len(ac) || bc[y] < ac[x]:
					col[p], val[p] = bc[y], bv[y]
					y++
				default: // both store (i, c): elementwise max
					col[p] = ac[x]
					val[p] = av[x]
					if bv[y] > val[p] {
						val[p] = bv[y]
					}
					x++
					y++
				}
				p++
			}
		}
	})
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: keep, Col: col, Val: val}, nil
}

// mergedLen counts the union of two sorted unique index slices.
func mergedLen(a, b []int32) int {
	n, x, y := 0, 0, 0
	for x < len(a) || y < len(b) {
		switch {
		case y == len(b) || (x < len(a) && a[x] < b[y]):
			x++
		case x == len(a) || b[y] < a[x]:
			y++
		default:
			x++
			y++
		}
		n++
	}
	return n
}

// Diffuse returns S·Sᵀ — two-hop similarity propagation. (S·Sᵀ)ᵀ = S·Sᵀ, so
// the output is symmetric in both pattern and values for any input.
func Diffuse(s *sparse.CSR) (*sparse.CSR, error) {
	if s.Rows != s.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, s.Rows, s.Cols)
	}
	s = valued(s)
	return sparse.SpGEMM(s, sparse.Transpose(s))
}

// RowMaxNorm scales every row by its maximum value, so each non-empty row has
// maximum exactly 1. Rows whose maximum is 0 (or non-finite) are left as-is.
func RowMaxNorm(s *sparse.CSR) *sparse.CSR {
	s = valued(s)
	out := s.Clone()
	n := out.Rows
	parallel.For(n, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rv := out.RowVals(i)
			max := 0.0
			for _, v := range rv {
				if v > max {
					max = v
				}
			}
			if max > 0 && !isInfOrNaN(max) {
				// True division, not multiply-by-reciprocal: x/x is exactly 1
				// in IEEE arithmetic, so the max-1 property holds bit-exactly.
				for k := range rv {
					rv[k] /= max
				}
			}
		}
	})
	return out
}

func isInfOrNaN(v float64) bool { return v != v || v > 1.797693134862315708e308 }
