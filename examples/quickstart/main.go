// Quickstart: reorder a sparse matrix with Bootes and measure the off-chip
// traffic it saves on a simulated row-wise-product accelerator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bootes"
	"bootes/internal/workloads"
)

func main() {
	// A 16384×16384 matrix whose rows fall into 32 hidden groups with
	// similar column supports, shuffled so the structure is invisible to the
	// row order — the pattern the paper's Figure 1 points out in
	// invextr1_new. Its B working set (~6.5 MB) exceeds Flexagon's 1 MB
	// cache, while one group's rows (~200 KB) fit comfortably.
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 16384, Cols: 16384, Density: 0.002, Seed: 42, Groups: 32,
	})
	fmt.Printf("input: %v\n", a)

	// Step 1: plan. Bootes extracts structural features, decides whether
	// reordering will pay off, picks the cluster count k, and runs spectral
	// clustering. Without a trained model the gate serves k=8, which mixes
	// four of this matrix's 32 groups per cluster: ForceK: 32 cuts B traffic
	// 2.53× here instead of 1.19×, for about twice the planning time.
	plan, err := bootes.Plan(a, &bootes.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if !plan.Reordered {
		log.Fatal("the gate declined — unexpected for this matrix")
	}
	fmt.Printf("plan: reorder with k=%d (%.3fs preprocessing)\n", plan.K, plan.PreprocessSeconds)

	// Step 2: apply the permutation to A (B stays as-is, per the usual
	// accelerator setup where B is streamed by row index).
	reordered, err := plan.Apply(a)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: run C = A·B on the simulated accelerator, before and after.
	before, err := bootes.Simulate(bootes.Flexagon, a, a)
	if err != nil {
		log.Fatal(err)
	}
	after, err := bootes.Simulate(bootes.Flexagon, reordered, a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("off-chip B traffic: %d -> %d bytes (%.2fx less)\n",
		before.BBytes, after.BBytes, float64(before.BBytes)/float64(after.BBytes))
	fmt.Printf("total traffic:      %d -> %d bytes (%.2fx less)\n",
		before.TotalBytes(), after.TotalBytes(),
		float64(before.TotalBytes())/float64(after.TotalBytes()))

	// Step 4: compute on the host and restore the original row order (the
	// paper's post-processing step) — the result matches the unordered run.
	c, err := bootes.SpGEMM(reordered, a)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := plan.Restore(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output: %v (row order restored)\n", restored)
}
