// Command benchfast measures the end-to-end planning wall clock of every
// similarity tier on a large synthetic clustered workload — the before/after
// record behind BENCH_fastpath.json. For each requested worker count it runs
// PlanContext once per tier (exact, bitset, approx, implicit, plus what auto
// resolves to) on the same matrix and reports total seconds, the per-stage
// breakdown, and each tier's speedup over the exact merge path.
//
// Rerun (from the repo root):
//
//	go run ./cmd/benchfast -rows 20000 -workers 1,2,4,0 -out BENCH_fastpath.json
//
// 0 in -workers means "the host default" (BOOTES_WORKERS or GOMAXPROCS).
// Entries above the host's core count, and repeats (such as a 0 that resolves
// to a count already listed), are dropped with a log line: a row timed with
// more workers than cores only measures time-slicing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"bootes"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/workloads"
)

type stageSeconds map[string]float64

type tierResult struct {
	Tier           string       `json:"tier"`
	Seconds        float64      `json:"seconds"`
	SpeedupVsExact float64      `json:"speedup_vs_exact,omitempty"`
	K              int          `json:"k"`
	Reordered      bool         `json:"reordered"`
	FootprintBytes int64        `json:"footprint_bytes"`
	Stages         stageSeconds `json:"stage_seconds"`
}

type workerBlock struct {
	Workers int          `json:"workers"`
	Tiers   []tierResult `json:"tiers"`
}

type document struct {
	Description string            `json:"description"`
	Environment map[string]any    `json:"environment"`
	Workload    map[string]any    `json:"workload"`
	Commands    []string          `json:"commands"`
	AutoTier    string            `json:"auto_resolves_to"`
	Results     []workerBlock     `json:"results"`
	Summary     map[string]string `json:"summary"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchfast: ")
	rows := flag.Int("rows", 20000, "matrix rows (synthetic clustered workload)")
	nnzPerRow := flag.Int("nnz", 48, "approximate nonzeros per row")
	groups := flag.Int("groups", 16, "hidden row groups")
	workers := flag.String("workers", "1", "comma-separated worker counts (0 = host default)")
	seed := flag.Int64("seed", 7, "workload and planning seed")
	k := flag.Int("k", 8, "forced cluster count (keeps tiers comparable)")
	out := flag.String("out", "", "write the JSON document here (empty = stdout)")
	reps := flag.Int("reps", 1, "runs per tier; the minimum is recorded (denoises shared hosts)")
	tiersFlag := flag.String("tiers", "exact,bitset,approx,implicit", "comma-separated tiers to run (speedups need exact first)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the tier runs here")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	m := workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: *rows, Cols: *rows,
		Density: float64(*nnzPerRow) / float64(*rows),
		Seed:    *seed, Groups: *groups,
	})
	log.Printf("workload: %d×%d, nnz=%d, %d groups", m.Rows, m.Cols, m.NNZ(), *groups)

	auto := bootes.EffectiveSimilarityMode(m, &bootes.Options{Seed: *seed})
	var tiers []bootes.SimilarityMode
	for _, ts := range strings.Split(*tiersFlag, ",") {
		tier, err := bootes.ParseSimilarityMode(strings.TrimSpace(ts))
		if err != nil || tier == bootes.SimAuto {
			log.Fatalf("bad -tiers entry %q (want exact, bitset, approx, or implicit)", ts)
		}
		tiers = append(tiers, tier)
	}

	doc := document{
		Description: "End-to-end PlanContext wall clock per similarity tier on a synthetic " +
			"clustered workload (ArchScrambledBlock). 'exact' is the merge-kernel path that " +
			"was the only explicit option before the fast path; speedup_vs_exact compares " +
			"each tier against it at the same worker count.",
		Environment: map[string]any{
			"go":            runtime.Version(),
			"cores_visible": runtime.NumCPU(),
			"note": "Worker counts above cores_visible are not run. Plans are bit-identical " +
				"across worker counts in every tier (asserted by internal/core tests).",
		},
		Workload: map[string]any{
			"archetype": "scrambled-block", "rows": *rows, "nnz": m.NNZ(),
			"nnz_per_row": *nnzPerRow, "groups": *groups, "seed": *seed, "forced_k": *k,
		},
		Commands: []string{
			fmt.Sprintf("go run ./cmd/benchfast -rows %d -nnz %d -groups %d -workers %s -seed %d -reps %d -out BENCH_fastpath.json",
				*rows, *nnzPerRow, *groups, *workers, *seed, *reps),
		},
		AutoTier: auto.String(),
		Summary:  map[string]string{},
	}

	for _, w := range workerCounts(*workers) {
		prev := parallel.SetWorkers(w)
		block := workerBlock{Workers: w}
		var exactSec float64
		for _, tier := range tiers {
			r := runTier(m, tier, *seed, *k)
			for rep := 1; rep < *reps; rep++ {
				if again := runTier(m, tier, *seed, *k); again.Seconds < r.Seconds {
					r = again
				}
			}
			if tier == bootes.SimExact {
				exactSec = r.Seconds
			} else if exactSec > 0 {
				r.SpeedupVsExact = round2(exactSec / r.Seconds)
			}
			log.Printf("workers=%d %-8s %.3fs", block.Workers, r.Tier, r.Seconds)
			block.Tiers = append(block.Tiers, r)
		}
		parallel.SetWorkers(prev)
		doc.Results = append(doc.Results, block)
		for _, r := range block.Tiers {
			if r.Tier == auto.String() && exactSec > 0 {
				doc.Summary[fmt.Sprintf("workers_%d", block.Workers)] = fmt.Sprintf(
					"auto selects %s: %.3fs vs exact %.3fs (%.2fx)",
					r.Tier, r.Seconds, exactSec, exactSec/r.Seconds)
			}
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// workerCounts resolves the -workers list to effective worker counts,
// dropping (and logging) entries above the host's cores and repeats.
func workerCounts(list string) []int {
	var counts []int
	for _, ws := range strings.Split(list, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(ws))
		if err != nil {
			log.Fatalf("bad -workers entry %q: %v", ws, err)
		}
		if w <= 0 {
			w = parallel.Workers() // no override is set yet: the host default
		}
		switch {
		case w > runtime.NumCPU():
			log.Printf("dropping -workers entry %q: %d workers on %d cores", ws, w, runtime.NumCPU())
		case slices.Contains(counts, w):
			log.Printf("dropping -workers entry %q: repeats workers=%d", ws, w)
		default:
			counts = append(counts, w)
		}
	}
	return counts
}

func runTier(m *bootes.Matrix, tier bootes.SimilarityMode, seed int64, k int) tierResult {
	trace := obs.Default().NewTrace()
	ctx := obs.WithTrace(context.Background(), trace)
	start := time.Now()
	plan, err := bootes.PlanContext(ctx, m, &bootes.Options{
		Seed: seed, ForceReorder: true, ForceK: k, Similarity: tier,
	})
	if err != nil {
		log.Fatalf("%s: %v", tier, err)
	}
	elapsed := time.Since(start).Seconds()
	if plan.Degraded {
		log.Fatalf("%s: degraded plan taints the benchmark: %s", tier, plan.DegradedReason)
	}
	if plan.SimilarityMode != tier.String() {
		log.Fatalf("%s: ran tier %q", tier, plan.SimilarityMode)
	}
	stages := stageSeconds{}
	for _, s := range trace.Report() {
		stages[s.Stage] = round4(stages[s.Stage] + s.Seconds)
	}
	return tierResult{
		Tier:           tier.String(),
		Seconds:        round4(elapsed),
		K:              plan.K,
		Reordered:      plan.Reordered,
		FootprintBytes: plan.FootprintBytes,
		Stages:         stages,
	}
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }
