package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"time"

	"bootes/internal/core"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// layers accumulates the traced replay: per-request sums of each layer's
// time and counts. Plan-only fields are summed over replayed plans.
type layers struct {
	requests, plans int
	// Per request.
	route, parse, parseAlloc, key, get, put, encode float64
	// Per plan: stage spans, verification and the plan's own counts.
	features, similarity, eigensolve, kmeans, permute float64
	verify, alloc, footprint, matvecs, kmeansIters    float64
	reordered, rejected                               int
	tiers                                             map[string]int
	// matches counts replayed plans identical to what bootesd served.
	matches int
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// pipeline mirrors the planning call bootesd makes on a first attempt with
// default flags: bootes.PlanContext with -seed 1, the auto similarity tier
// and no model. It calls core.Pipeline directly because that result carries
// the eigensolver matvec and k-means iteration counts, and so that
// planverify can be timed on its own.
var pipeline = core.Pipeline{Spectral: core.SpectralOptions{Seed: 1}}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// replay runs each request's layers in-process, in bootesd's order, timing
// the call into each: the fleet router's parse and KeyCSR (fleet workloads:
// every node's router hashes the body before choosing to serve or forward
// it), the server's parse, KeyCSR, cache get, the pipeline with an obs trace
// attached (misses only), planverify, cache put (misses only), and JSON
// encoding of the response. served holds bootesd's permutation for
// each request; cache is a scratch plan cache (hot workloads pre-filled).
func replay(ctx context.Context, w *workload, reqs []*matrix, served [][]int32, cache *plancache.Cache) (*layers, error) {
	l := &layers{tiers: map[string]int{}}
	for i, mx := range reqs {
		t := time.Now()
		if w.nodes > 1 {
			m, err := decode(mx.body)
			if err != nil {
				return nil, fmt.Errorf("replay route parse: %w", err)
			}
			plancache.KeyCSR(m)
			l.route += since(t)
		}

		a0 := heapAllocs()
		t = time.Now()
		m, err := decode(mx.body)
		l.parse += since(t)
		l.parseAlloc += heapAllocs() - a0
		if err != nil {
			return nil, fmt.Errorf("replay parse: %w", err)
		}

		t = time.Now()
		key := plancache.KeyCSR(m)
		l.key += since(t)

		t = time.Now()
		e, hit := cache.Get(key)
		l.get += since(t)

		var resp *planserve.PlanResponse
		if hit {
			resp = &planserve.PlanResponse{Key: key, Reordered: e.Reordered, K: e.K,
				PreprocessSeconds: e.PreprocessSeconds, FootprintBytes: e.FootprintBytes,
				Rows: len(e.Perm), Cached: true, Perm: e.Perm}
		} else {
			res, err := l.plan(ctx, m)
			if err != nil {
				return nil, err
			}
			if i < len(served) && slices.Equal(res.Perm, served[i]) {
				l.matches++
			}
			t = time.Now()
			err = cache.Put(&plancache.Entry{Key: key, Perm: res.Perm, Reordered: res.Reordered,
				K: int(res.Extra["k"]), PreprocessSeconds: res.PreprocessTime.Seconds(),
				FootprintBytes: res.FootprintBytes})
			l.put += since(t)
			if err != nil {
				return nil, fmt.Errorf("replay cache put: %w", err)
			}
			resp = &planserve.PlanResponse{Key: key, Reordered: res.Reordered, K: int(res.Extra["k"]),
				PreprocessSeconds: res.PreprocessTime.Seconds(), FootprintBytes: res.FootprintBytes,
				Rows: m.Rows, SimilarityMode: res.SimilarityMode, AutoK: res.AutoK, Perm: res.Perm}
		}

		t = time.Now()
		err = json.NewEncoder(io.Discard).Encode(resp)
		l.encode += since(t)
		if err != nil {
			return nil, fmt.Errorf("replay encode: %w", err)
		}
		l.requests++
	}
	return l, nil
}

// plan runs the pipeline under a trace, then both of bootesd's verifier
// passes (the planning site with the never-regress traffic check, and the
// serving site's structural check), timed apart from planning.
func (l *layers) plan(ctx context.Context, m *sparse.CSR) (*reorder.Result, error) {
	tr := obs.NewRegistry().NewTrace()
	a0 := heapAllocs()
	res, err := pipeline.ReorderContext(obs.WithTrace(ctx, tr), m)
	l.alloc += heapAllocs() - a0
	if err != nil {
		return nil, fmt.Errorf("replay plan: %w", err)
	}
	for _, st := range tr.Report() {
		switch st.Stage {
		case obs.StageFeatures:
			l.features += st.Seconds
		case obs.StageSimilarity:
			l.similarity += st.Seconds
		case obs.StageEigensolve:
			l.eigensolve += st.Seconds
		case obs.StageKMeans:
			l.kmeans += st.Seconds
		case obs.StagePermute:
			l.permute += st.Seconds
		}
	}
	t := time.Now()
	res, vs := planverify.VerifyResult(planverify.SitePlan, m, res, &planverify.Config{Traffic: true})
	res, vs2 := planverify.VerifyResult(planverify.SiteServe, m, res, nil)
	l.verify += since(t)
	if len(vs)+len(vs2) > 0 {
		l.rejected++
	}
	l.plans++
	l.footprint += float64(res.FootprintBytes)
	l.matvecs += res.Extra["matvecs"]
	l.kmeansIters += res.Extra["kmeansIters"]
	if res.Reordered {
		l.reordered++
	}
	if res.SimilarityMode != "" {
		l.tiers[res.SimilarityMode]++
	}
	return res, nil
}
