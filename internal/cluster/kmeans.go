// Package cluster implements k-means (k-means++ seeding plus Lloyd
// iteration) on spectral embeddings, and the conversion of a cluster
// assignment into the row permutation Bootes feeds to the accelerator.
package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"bootes/internal/parallel"
)

// pointGrain is the fixed point-chunk size of the parallel Lloyd steps. It is
// never derived from the worker count: per-chunk partial centroid sums are
// merged in ascending chunk order, so assignments, centroids, and inertia are
// bit-identical for every worker count (including the forced
// parallel.Sequential mode).
const pointGrain = 256

// KMeansOptions configures the Lloyd iteration.
type KMeansOptions struct {
	K        int
	MaxIters int   // 0 selects 100
	Seed     int64 // seeding determinism
	// Restarts runs k-means++ + Lloyd this many times and keeps the lowest
	// inertia solution. 0 selects 3.
	Restarts int
	// Tol stops iteration when the relative inertia improvement drops below
	// it. 0 selects 1e-6.
	Tol float64
}

func (o KMeansOptions) withDefaults() KMeansOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	return o
}

// KMeansResult holds a clustering of n points into K clusters.
type KMeansResult struct {
	// Assign[i] is the cluster id of point i, in [0, K).
	Assign []int32
	// Centers is the K×dim row-major centroid matrix.
	Centers []float64
	Dim     int
	// Inertia is the summed squared distance of points to their centroids.
	Inertia float64
	// Iters is the number of Lloyd iterations of the winning restart.
	Iters int
}

// ErrBadInput reports invalid k-means input.
var ErrBadInput = errors.New("cluster: invalid k-means input")

// KMeans clusters n points of dimension dim, given row-major points
// (len n*dim), into opts.K clusters.
func KMeans(points []float64, n, dim int, opts KMeansOptions) (*KMeansResult, error) {
	return KMeansContext(context.Background(), points, n, dim, opts)
}

// KMeansContext is KMeans with cooperative cancellation: the context is
// checked before each restart and once per Lloyd iteration, so a cancelled
// clustering returns ctx.Err() within one iteration of the cancellation.
func KMeansContext(ctx context.Context, points []float64, n, dim int, opts KMeansOptions) (*KMeansResult, error) {
	if n <= 0 || dim <= 0 || len(points) != n*dim {
		return nil, ErrBadInput
	}
	opts = opts.withDefaults()
	if opts.K <= 0 || opts.K > n {
		return nil, ErrBadInput
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Restarts are independent (each owns a seed-derived PRNG), so they fan
	// out across the worker pool; the winner is picked by scanning restarts
	// in index order with a strict `<`, exactly as the sequential loop did.
	results := make([]*KMeansResult, opts.Restarts)
	if err := parallel.ForContext(ctx, opts.Restarts, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			if ctx.Err() != nil {
				return
			}
			rng := rand.New(rand.NewSource(opts.Seed + int64(r)*0x9e3779b9))
			results[r] = lloyd(ctx, points, n, dim, opts, rng)
		}
	}); err != nil {
		return nil, err
	}
	var best *KMeansResult
	for _, res := range results {
		if res == nil {
			// A restart was abandoned mid-flight; only possible when the
			// context fired between the ForContext return and its chunks.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errors.New("cluster: k-means restart produced no result")
		}
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// assignPartial carries one chunk's contribution to a Lloyd iteration: the
// partial inertia, per-cluster point counts, and per-cluster coordinate sums.
type assignPartial struct {
	inertia float64
	counts  []int64
	sums    []float64 // k×dim row-major
}

// assignChunk runs the fused assignment+accumulation step over points
// [lo, hi): it writes assign (disjoint per chunk) and returns the chunk's
// partial sums.
func assignChunk(points []float64, dim, k int, centers []float64, assign []int32, lo, hi int) assignPartial {
	p := assignPartial{
		counts: make([]int64, k),
		sums:   make([]float64, k*dim),
	}
	for i := lo; i < hi; i++ {
		pt := points[i*dim : (i+1)*dim]
		bestC, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			d := sqDist(pt, centers[c*dim:(c+1)*dim])
			if d < bestD {
				bestD, bestC = d, c
			}
		}
		assign[i] = int32(bestC)
		p.inertia += bestD
		p.counts[bestC]++
		cc := p.sums[bestC*dim : (bestC+1)*dim]
		for d := 0; d < dim; d++ {
			cc[d] += pt[d]
		}
	}
	return p
}

// mergePartials folds chunk partials in ascending chunk order (the order
// parallel.Reduce guarantees), keeping float summation deterministic.
func mergePartials(acc, part assignPartial) assignPartial {
	if acc.counts == nil {
		return part
	}
	acc.inertia += part.inertia
	for i := range acc.counts {
		acc.counts[i] += part.counts[i]
	}
	for i := range acc.sums {
		acc.sums[i] += part.sums[i]
	}
	return acc
}

// lloyd runs one k-means++-seeded Lloyd iteration to convergence. It
// returns nil when ctx fires mid-run (checked once per iteration); callers
// must treat a nil result as cancellation.
func lloyd(ctx context.Context, points []float64, n, dim int, opts KMeansOptions, rng *rand.Rand) *KMeansResult {
	k := opts.K
	centers := seedPlusPlus(points, n, dim, k, rng)
	assign := make([]int32, n)
	prevInertia := math.Inf(1)
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		if ctx.Err() != nil {
			return nil
		}
		// Fused assignment + accumulation over parallel point chunks; the
		// chunk-ordered merge keeps the sums deterministic for any worker
		// count.
		part := parallel.Reduce(n, pointGrain, assignPartial{},
			func(lo, hi int) assignPartial {
				return assignChunk(points, dim, k, centers, assign, lo, hi)
			}, mergePartials)
		inertia := part.inertia
		counts := part.counts
		copy(centers, part.sums)
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// centroid (standard k-means empty-cluster repair).
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					p := points[i*dim : (i+1)*dim]
					a := int(assign[i])
					d := sqDist(p, centers[a*dim:(a+1)*dim])
					if d > farD {
						farD, far = d, i
					}
				}
				copy(centers[c*dim:(c+1)*dim], points[far*dim:(far+1)*dim])
				continue
			}
			cc := centers[c*dim : (c+1)*dim]
			inv := 1 / float64(counts[c])
			for d := 0; d < dim; d++ {
				cc[d] *= inv
			}
		}
		if prevInertia-inertia <= opts.Tol*math.Max(prevInertia, 1e-300) {
			prevInertia = inertia
			iters++
			break
		}
		prevInertia = inertia
	}
	// Final assignment against the last centers for a consistent result.
	final := parallel.Reduce(n, pointGrain, assignPartial{},
		func(lo, hi int) assignPartial {
			return assignChunk(points, dim, k, centers, assign, lo, hi)
		}, mergePartials)
	return &KMeansResult{Assign: assign, Centers: centers, Dim: dim, Inertia: final.inertia, Iters: iters}
}

// seedPlusPlus implements k-means++ seeding (Arthur & Vassilvitskii).
func seedPlusPlus(points []float64, n, dim, k int, rng *rand.Rand) []float64 {
	centers := make([]float64, k*dim)
	first := rng.Intn(n)
	copy(centers[:dim], points[first*dim:(first+1)*dim])
	dist := make([]float64, n)
	parallel.For(n, pointGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = sqDist(points[i*dim:(i+1)*dim], centers[:dim])
		}
	})
	for c := 1; c < k; c++ {
		total := 0.0
		for _, d := range dist {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range dist {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(centers[c*dim:(c+1)*dim], points[pick*dim:(pick+1)*dim])
		parallel.For(n, pointGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d := sqDist(points[i*dim:(i+1)*dim], centers[c*dim:(c+1)*dim])
				if d < dist[i] {
					dist[i] = d
				}
			}
		})
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
