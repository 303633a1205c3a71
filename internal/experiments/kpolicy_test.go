package experiments

import (
	"slices"
	"testing"

	"bootes/internal/core"
	"bootes/internal/parallel"
)

// kpOracleMarginPts is how far, in points of summed traffic ratio at
// 64 KiB, the default pipeline's plans may read above the per-matrix oracle
// on cold-sparse-shaped matrices. Serving k=8 reads 0.3 point above it; the
// size rule the gate served before (k=32 from 1 024 rows) read 7.6 points
// above.
const kpOracleMarginPts = 1.0

// TestUntrainedGateNearOracle plans 20 matrices shaped like e2ebench's
// cold-sparse requests through the default core.Pipeline (no model, so the
// untrained gate picks k) and requires their summed modeled B traffic at
// 64 KiB to stay within kpOracleMarginPts of the per-matrix best candidate
// k.
func TestUntrainedGateNearOracle(t *testing.T) {
	mats := kpCorpus(kpGroup{name: "cold-sparse", slots: kpColdSparse, seeds: 2}, 1)
	cache := slices.Index(kpCaches, 64<<10)
	c := Config{Seed: 1}
	recs := make([]KPRecord, len(mats))
	served := make([]int64, len(mats))
	errs := make([]error, len(mats))
	parallel.ForWorkers(2, len(mats), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if recs[i], errs[i] = c.kpRun(mats[i]); errs[i] != nil || !recs[i].Approved {
				continue
			}
			p := &core.Pipeline{Spectral: core.SpectralOptions{Seed: c.Seed}}
			res, err := p.Reorder(mats[i].a)
			if err != nil {
				errs[i] = err
				continue
			}
			aOp, bOp := operands(mats[i].a)
			b, err := kpTraffic(aOp, bOp, res.Perm)
			served[i], errs[i] = b[cache], err
		}
	})
	var with, base int64
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if recs[i].Approved {
			with += served[i]
			base += recs[i].Base[cache]
		}
	}
	rep := &KPReport{Records: recs}
	if n := rep.approved(""); n < 15 {
		t.Fatalf("gate approved %d of %d cold-sparse matrices, want most", n, len(mats))
	}
	got := float64(with) / float64(base)
	oracle := rep.Ratio("", cache, oraclePick)
	t.Logf("served %.4f, oracle %.4f, k=%d %.4f, size rule %.4f", got, oracle,
		core.UntrainedK, rep.Ratio("", cache, fixedPick(core.UntrainedK)), rep.Ratio("", cache, sizeRulePick))
	if pts := 100 * (got - oracle); pts > kpOracleMarginPts {
		t.Fatalf("default plans model %.4f of identity B traffic at 64 KiB, %.2f points above the per-matrix oracle's %.4f (margin %.1f)",
			got, pts, oracle, kpOracleMarginPts)
	}
}
