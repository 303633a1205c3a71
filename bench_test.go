package bootes

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the corresponding experiment driver at a reduced scale and attaches
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result (see EXPERIMENTS.md for the paper-vs-measured
// index; cmd/benchsuite renders the full report at larger scales).

import (
	"context"
	"testing"

	"bootes/internal/accel"
	"bootes/internal/core"
	"bootes/internal/eigen"
	"bootes/internal/experiments"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// benchConfig is the shared reduced-scale experiment configuration.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.05, Seed: 1}
}

// BenchmarkTable1Dataflows measures inner vs outer vs row-wise product
// traffic (paper Table 1). Metric: row-wise total traffic normalized to
// compulsory, and its advantage over the inner product.
func BenchmarkTable1Dataflows(b *testing.B) {
	cfg := benchConfig()
	cfg.SuiteIDs = []string{"VI", "SM"}
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last.Rows {
		switch r.Dataflow {
		case accel.RowWiseProduct:
			b.ReportMetric(r.NormTotal, "rowwise-norm-traffic")
		case accel.InnerProduct:
			b.ReportMetric(r.NormTotal, "inner-norm-traffic")
		case accel.OuterProduct:
			b.ReportMetric(r.NormTotal, "outer-norm-traffic")
		}
	}
}

// BenchmarkTable2Scaling fits the empirical preprocessing-time scaling
// exponents (paper Table 2). Metrics: size exponents per algorithm
// (Bootes ≈ 1, Gamma/Graph ≈ 2).
func BenchmarkTable2Scaling(b *testing.B) {
	cfg := benchConfig()
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last.Rows {
		switch r.Algorithm {
		case "Bootes":
			b.ReportMetric(r.SizeExponent, "bootes-size-exp")
		case "Gamma":
			b.ReportMetric(r.SizeExponent, "gamma-size-exp")
		case "Graph":
			b.ReportMetric(r.SizeExponent, "graph-size-exp")
		}
	}
}

// BenchmarkFigure3ClusterSize sweeps the candidate cluster counts on one
// matrix via the shared-embedding sweep (paper Figure 3's bars). Metric:
// best-k B-traffic ratio vs original order.
func BenchmarkFigure3ClusterSize(b *testing.B) {
	spec, _ := workloads.ByID("IN")
	a := spec.Generate(0.05)
	best := 1.0
	for i := 0; i < b.N; i++ {
		entries, err := core.SpectralSweep(a, core.CandidateKs, core.SpectralOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		best = 1.0
		for _, e := range entries {
			est, err := trafficmodel.EstimateBWithPerm(a, a, e.Perm, 50<<10, 12)
			if err != nil {
				b.Fatal(err)
			}
			base, err := trafficmodel.EstimateB(a, a, 50<<10, 12)
			if err != nil {
				b.Fatal(err)
			}
			if r := float64(est.BTraffic) / float64(base.BTraffic); r < best {
				best = r
			}
		}
	}
	b.ReportMetric(best, "best-k-traffic-ratio")
}

// BenchmarkFigure4Traffic runs the adaptability study (paper Figure 4) on a
// representative suite subset. Metric: geomean traffic reduction of Bootes
// vs no reordering on the smallest-cache accelerator.
func BenchmarkFigure4Traffic(b *testing.B) {
	cfg := benchConfig()
	cfg.SuiteIDs = []string{"IN", "MI", "SM"}
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Reduction["Flexagon"]["Original"], "flexagon-vs-original")
	b.ReportMetric(last.Reduction["GAMMA"]["Original"], "gamma-vs-original")
	b.ReportMetric(last.Reduction["Trapezoid"]["Original"], "trapezoid-vs-original")
}

// BenchmarkFigure5Scalability measures preprocessing time and footprint
// over the size/density sweep (paper Figure 5). Metrics: Bootes' geomean
// time speedup and memory reduction vs Gamma.
func BenchmarkFigure5Scalability(b *testing.B) {
	cfg := benchConfig()
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TimeSpeedup["Gamma"], "time-speedup-vs-gamma")
	b.ReportMetric(last.MemReduction["Gamma"], "mem-reduction-vs-gamma")
	b.ReportMetric(last.TimeSpeedup["Hier"], "time-speedup-vs-hier")
}

// BenchmarkFigure6EndToEnd runs the end-to-end (preprocess + compute)
// comparison (paper Figure 6). Metric: Bootes' preprocessing-time advantage
// over Gamma and Hier (the paper's §5.4 ratios).
func BenchmarkFigure6EndToEnd(b *testing.B) {
	cfg := benchConfig()
	cfg.SuiteIDs = []string{"IN", "SM"}
	var last *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PreprocessRatio["Gamma"], "preproc-ratio-gamma")
	b.ReportMetric(last.PreprocessRatio["Hier"], "preproc-ratio-hier")
}

// BenchmarkTable4Speedup derives the per-accelerator geomean execution
// speedups over no preprocessing (paper Table 4) from the Figure 6 runs.
func BenchmarkTable4Speedup(b *testing.B) {
	cfg := benchConfig()
	cfg.SuiteIDs = []string{"IN", "MI"}
	var last *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, acc := range []string{"Flexagon", "GAMMA", "Trapezoid"} {
		b.ReportMetric(last.Table4[acc]["Bootes"], acc+"-bootes-speedup")
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func ablationMatrix() *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 3000, Cols: 3000, Density: 0.006, Seed: 17, Groups: 24,
	})
}

// BenchmarkAblationImplicitSimilarity compares paper Algorithm 4, which
// materializes S = Ā·Āᵀ (the exact arm), with the matrix-free operator the
// default options run (the implicit arm): one valued pass over S per matvec
// against two pattern passes over Ā. Metrics: ns/op of the whole spectral
// pass and its modeled peak footprint.
func BenchmarkAblationImplicitSimilarity(b *testing.B) {
	a := ablationMatrix()
	for _, tc := range []struct {
		name string
		mode core.SimilarityMode
	}{{"exact", core.SimExact}, {"implicit", core.SimImplicit}} {
		b.Run(tc.name, func(b *testing.B) {
			var foot int64
			for i := 0; i < b.N; i++ {
				res, err := core.Spectral{Opts: core.SpectralOptions{K: 16, Seed: 1, Similarity: tc.mode}}.Reorder(a)
				if err != nil {
					b.Fatal(err)
				}
				foot = res.FootprintBytes
			}
			b.ReportMetric(float64(foot), "modeled-footprint-bytes")
		})
	}
}

// BenchmarkAblationHubExclusion compares similarity construction with and
// without the hub-column cap that keeps S sparse.
func BenchmarkAblationHubExclusion(b *testing.B) {
	a := ablationMatrix()
	b.Run("capped", func(b *testing.B) {
		var nnz int64
		for i := 0; i < b.N; i++ {
			s := sparse.SimilarityCapped(a, sparse.HubDegreeThreshold(a))
			nnz = s.NNZ()
		}
		b.ReportMetric(float64(nnz), "sim-nnz")
	})
	b.Run("uncapped", func(b *testing.B) {
		var nnz int64
		for i := 0; i < b.N; i++ {
			s := sparse.Similarity(a)
			nnz = s.NNZ()
		}
		b.ReportMetric(float64(nnz), "sim-nnz")
	})
}

// BenchmarkAblationClusterOrder compares the Fiedler-sorted cluster layout
// against plain cluster-id order (traffic quality metric).
func BenchmarkAblationClusterOrder(b *testing.B) {
	a := ablationMatrix()
	for _, tc := range []struct {
		name  string
		order int
	}{{"fiedler", 0}, {"clusterID", 1}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			ratio := 0.0
			for i := 0; i < b.N; i++ {
				opts := core.SpectralOptions{K: 16, Seed: 1}
				if tc.order == 1 {
					opts.Order = 1 // cluster.OrderClusterID
				}
				res, err := core.Spectral{Opts: opts}.Reorder(a)
				if err != nil {
					b.Fatal(err)
				}
				base, err := trafficmodel.EstimateB(a, a, 64<<10, 12)
				if err != nil {
					b.Fatal(err)
				}
				est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, 64<<10, 12)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(est.BTraffic) / float64(base.BTraffic)
			}
			b.ReportMetric(ratio, "traffic-ratio")
		})
	}
}

// BenchmarkAblationGammaWindow sweeps GAMMA's window size W, the structural
// constraint the paper's §2.2.1 analysis criticizes.
func BenchmarkAblationGammaWindow(b *testing.B) {
	a := ablationMatrix()
	for _, w := range []int{16, 128, 1024} {
		w := w
		b.Run(benchName("W", w), func(b *testing.B) {
			ratio := 0.0
			for i := 0; i < b.N; i++ {
				res, err := reorder.Gamma{W: w, Seed: 1}.Reorder(a)
				if err != nil {
					b.Fatal(err)
				}
				base, err := trafficmodel.EstimateB(a, a, 64<<10, 12)
				if err != nil {
					b.Fatal(err)
				}
				est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, 64<<10, 12)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(est.BTraffic) / float64(base.BTraffic)
			}
			b.ReportMetric(ratio, "traffic-ratio")
		})
	}
}

// BenchmarkAblationLanczosBasis sweeps the Krylov basis bound: larger bases
// converge in fewer restarts but cost more per step and more memory.
func BenchmarkAblationLanczosBasis(b *testing.B) {
	a := ablationMatrix()
	s := sparse.SimilarityCapped(a, sparse.HubDegreeThreshold(a))
	op := eigen.NewNormalizedSimilarity(s)
	for _, basis := range []int{40, 80, 160} {
		basis := basis
		b.Run(benchName("m", basis), func(b *testing.B) {
			matvecs := 0
			for i := 0; i < b.N; i++ {
				res, err := eigen.Largest(op, eigen.Options{K: 16, Seed: 1, Tol: 1e-5, MaxBasis: basis})
				if err != nil {
					b.Fatal(err)
				}
				matvecs = res.MatVecs
			}
			b.ReportMetric(float64(matvecs), "matvecs")
		})
	}
}

// --- Kernel micro-benchmarks ---

func BenchmarkKernelSpGEMM(b *testing.B) {
	a := ablationMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.SpGEMM(a, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSimilarity(b *testing.B) {
	a := ablationMatrix()
	thr := sparse.HubDegreeThreshold(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SimilarityCapped(a, thr)
	}
}

func BenchmarkKernelTranspose(b *testing.B) {
	a := ablationMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.Transpose(a)
	}
}

func BenchmarkKernelCacheSim(b *testing.B) {
	a := ablationMatrix()
	cfg := accel.Config{Name: "bench", PEs: 16, CacheBytes: 64 << 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := accel.SimulateRowWise(cfg, a, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorderGamma(b *testing.B) {
	a := ablationMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (reorder.Gamma{Seed: 1}).Reorder(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorderGraph(b *testing.B) {
	a := ablationMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (reorder.Graph{Seed: 1}).Reorder(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorderHier(b *testing.B) {
	a := ablationMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (reorder.Hier{}).Reorder(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorderBootes(b *testing.B) {
	a := ablationMatrix()
	p := &core.Pipeline{ForceReorder: true, ForceK: 16, Spectral: core.SpectralOptions{Seed: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Reorder(a); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	// Small helper to avoid importing strconv at every call site.
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationRecursive compares flat spectral clustering against the
// recursive extension when the hidden group count exceeds the largest
// candidate k.
func BenchmarkAblationRecursive(b *testing.B) {
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 4096, Cols: 4096, Density: 0.004, Seed: 5, Groups: 64,
	})
	const cache = 24 << 10
	base, err := trafficmodel.EstimateB(a, a, cache, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flat-k8", func(b *testing.B) {
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			res, err := core.Spectral{Opts: core.SpectralOptions{K: 8, Seed: 1}}.Reorder(a)
			if err != nil {
				b.Fatal(err)
			}
			est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, cache, 12)
			if err != nil {
				b.Fatal(err)
			}
			ratio = float64(est.BTraffic) / float64(base.BTraffic)
		}
		b.ReportMetric(ratio, "traffic-ratio")
	})
	b.Run("recursive-k8", func(b *testing.B) {
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			res, err := core.Recursive{K: 8, MaxClusterRows: 96, Opts: core.SpectralOptions{Seed: 1}}.Reorder(a)
			if err != nil {
				b.Fatal(err)
			}
			est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, cache, 12)
			if err != nil {
				b.Fatal(err)
			}
			ratio = float64(est.BTraffic) / float64(base.BTraffic)
		}
		b.ReportMetric(ratio, "traffic-ratio")
	})
}

// BenchmarkAblationReorthogonalization compares full reorthogonalization
// against the classic three-term recurrence in the Lanczos eigensolver.
func BenchmarkAblationReorthogonalization(b *testing.B) {
	a := ablationMatrix()
	s := sparse.SimilarityCapped(a, sparse.HubDegreeThreshold(a))
	op := eigen.NewNormalizedSimilarity(s)
	for _, tc := range []struct {
		name  string
		local bool
	}{{"full", false}, {"three-term", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			matvecs := 0
			for i := 0; i < b.N; i++ {
				res, err := eigen.Largest(op, eigen.Options{
					K: 16, Seed: 1, Tol: 1e-5, MaxBasis: 64, LocalReorth: tc.local,
				})
				if err != nil {
					b.Fatal(err)
				}
				matvecs = res.MatVecs
			}
			b.ReportMetric(float64(matvecs), "matvecs")
		})
	}
}

// BenchmarkAblationTwoLevelCache compares the flat shared cache against a
// GAMMA-style hierarchy with small per-PE buffers.
func BenchmarkAblationTwoLevelCache(b *testing.B) {
	a := ablationMatrix()
	for _, tc := range []struct {
		name    string
		private int64
	}{{"shared-only", 0}, {"with-pe-buffers", 2 << 10}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				res, err := accel.SimulateRowWise(accel.Config{
					Name: "bench", PEs: 16, CacheBytes: 64 << 10, PEPrivateCacheBytes: tc.private,
				}, a, a)
				if err != nil {
					b.Fatal(err)
				}
				traffic = res.Traffic.BBytes
			}
			b.ReportMetric(float64(traffic), "b-traffic-bytes")
		})
	}
}

// BenchmarkAblationKSelection compares three ways of choosing the cluster
// count on a matrix with 24 hidden groups: the untrained gate's fixed k
// (default options), eigengap auto-k over the refined similarity
// (core.EigengapK, which can pick k outside the candidate set, then a
// core.FixedK plan at its k), and the best of a full candidate sweep
// (oracle).
func BenchmarkAblationKSelection(b *testing.B) {
	a := ablationMatrix()
	const cache = 64 << 10
	base, err := trafficmodel.EstimateB(a, a, cache, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gate", func(b *testing.B) {
		ratio, k := 0.0, 0
		for i := 0; i < b.N; i++ {
			p := &core.Pipeline{Spectral: core.SpectralOptions{Seed: 1}}
			res, err := p.Reorder(a)
			if err != nil {
				b.Fatal(err)
			}
			est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, cache, 12)
			if err != nil {
				b.Fatal(err)
			}
			ratio, k = float64(est.BTraffic)/float64(base.BTraffic), int(res.Extra["k"])
		}
		b.ReportMetric(ratio, "traffic-ratio")
		b.ReportMetric(float64(k), "k")
	})
	b.Run("autok", func(b *testing.B) {
		ratio, k := 0.0, 0
		for i := 0; i < b.N; i++ {
			opts := core.SpectralOptions{Seed: 1}
			sel, _, outcome, err := core.EigengapK(context.Background(), a, opts)
			if err != nil || outcome != core.AutoKSelected {
				b.Fatalf("eigengap selection: %s, %v", outcome, err)
			}
			res, err := core.FixedK{K: sel, Opts: opts}.Reorder(a)
			if err != nil {
				b.Fatal(err)
			}
			est, err := trafficmodel.EstimateBWithPerm(a, a, res.Perm, cache, 12)
			if err != nil {
				b.Fatal(err)
			}
			ratio, k = float64(est.BTraffic)/float64(base.BTraffic), int(res.Extra["k"])
		}
		b.ReportMetric(ratio, "traffic-ratio")
		b.ReportMetric(float64(k), "k")
	})
	b.Run("oracle-sweep", func(b *testing.B) {
		ratio := 0.0
		for i := 0; i < b.N; i++ {
			entries, err := core.SpectralSweep(a, core.CandidateKs, core.SpectralOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			best := 1.0
			for _, e := range entries {
				est, err := trafficmodel.EstimateBWithPerm(a, a, e.Perm, cache, 12)
				if err != nil {
					b.Fatal(err)
				}
				if r := float64(est.BTraffic) / float64(base.BTraffic); r < best {
					best = r
				}
			}
			ratio = best
		}
		b.ReportMetric(ratio, "traffic-ratio")
	})
}

// BenchmarkPlanDefault plans a fixed ten-matrix cycle shaped like
// e2ebench's cold-sparse requests (workloads.ColdSparse) through
// PlanContext with default options, as bootesd's first attempt does: the
// untrained gate picks k, and every plan is verified. One op plans all ten.
func BenchmarkPlanDefault(b *testing.B) {
	mats := workloads.Corpus(workloads.ColdSparse, 1, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mats {
			if _, err := PlanContext(ctx, m, &Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
