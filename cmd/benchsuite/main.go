// Command benchsuite regenerates every table and figure of the Bootes paper
// on the synthetic suite: Tables 1-4, Figures 1-6, and the §5.1 decision-
// tree analysis. Results are written as a text report; see EXPERIMENTS.md
// for the paper-vs-measured comparison.
//
// Usage:
//
//	benchsuite [-scale 0.12] [-seed 1] [-out report.txt] [-only T1,F4,...]
//	           [-suite IN,PO,...] [-skip-train] [-jobs N] [-similarity auto]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"bootes/internal/core"
	"bootes/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")

	scale := flag.Float64("scale", 0.12, "matrix size scale (1 = paper's full Table 3 sizes)")
	seed := flag.Int64("seed", 1, "global random seed")
	outPath := flag.String("out", "", "write the report to this file (default stdout)")
	only := flag.String("only", "", "comma-separated experiment ids to run (T1,T2,T3,T4,F1,F2,F3,F4,F5,F6,DT,MC,EN,AM,SC,KP); empty = all")
	suite := flag.String("suite", "", "comma-separated Table 3 workload IDs to restrict to")
	skipTrain := flag.Bool("skip-train", false, "skip decision-tree training (F3 and DT are skipped; Bootes uses its heuristic gate)")
	figDir := flag.String("figdir", "", "write PGM spy plots for Figures 1-2 into this directory")
	jobs := flag.Int("jobs", 1, "workload-level parallelism for corpus labelling and Figure 4 (results are identical for any value; see also BOOTES_WORKERS)")
	similarity := flag.String("similarity", "auto", "similarity tier for every spectral pass: auto, exact, approx, or implicit")
	flag.Parse()

	simMode, err := core.ParseSimilarityMode(*similarity)
	if err != nil {
		log.Fatal(err)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Out: out, FigDir: *figDir, Jobs: *jobs,
		Similarity: simMode,
	}
	if *suite != "" {
		cfg.SuiteIDs = strings.Split(*suite, ",")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	start := time.Now()
	fmt.Fprintf(out, "Bootes reproduction suite — scale %.2f, seed %d, %s\n",
		*scale, *seed, time.Now().Format(time.RFC3339))

	// Decision-tree training first: Figure 3 needs the model and held-out
	// set, and the Bootes pipeline in Figures 4/6 uses the trained gate.
	var (
		trainRep *experiments.TrainReport
		testSet  []experiments.LabeledMatrix
		corpus   []experiments.LabeledMatrix
	)
	if !*skipTrain && (run("DT") || run("F3") || run("MC") || len(want) == 0) {
		step(out, "labelling the training corpus + training the decision tree (DT)")
		var err error
		corpus, err = cfg.BuildCorpus()
		if err != nil {
			log.Fatalf("label corpus: %v", err)
		}
		rep, test, err := cfg.TrainOn(corpus)
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		trainRep, testSet = rep, test
		cfg.Model = rep.Model
	}

	type expt struct {
		id string
		fn func() error
	}
	expts := []expt{
		{"T3", func() error { _, err := experiments.Table3(cfg); return err }},
		{"T1", func() error { _, err := experiments.Table1(cfg); return err }},
		{"T2", func() error { _, err := experiments.Table2(cfg); return err }},
		{"F1", func() error { _, err := experiments.Figure1(cfg); return err }},
		{"F2", func() error { _, err := experiments.Figure2(cfg); return err }},
		{"F3", func() error {
			if trainRep == nil {
				fmt.Fprintln(out, "\nFigure 3 skipped (no trained model)")
				return nil
			}
			_, err := experiments.Figure3(cfg, experiments.NewCoreModel(trainRep.Model), testSet)
			return err
		}},
		{"F4", func() error { _, err := experiments.Figure4(cfg); return err }},
		{"F5", func() error { _, err := experiments.Figure5(cfg); return err }},
		{"F6", func() error { _, err := experiments.Figure6(cfg); return err }},
		{"EN", func() error { _, err := experiments.EnergyReport(cfg); return err }},
		{"AM", func() error { _, err := experiments.Amortization(cfg); return err }},
		{"SC", func() error { _, err := experiments.SelectorComparison(cfg); return err }},
		{"KP", func() error { _, err := experiments.KPolicy(cfg); return err }},
		{"MC", func() error {
			if *skipTrain || corpus == nil {
				fmt.Fprintln(out, "\nModel comparison skipped (-skip-train)")
				return nil
			}
			_, err := experiments.ModelComparison(cfg, corpus)
			return err
		}},
	}
	for _, e := range expts {
		if !run(e.id) {
			continue
		}
		step(out, "running "+e.id)
		if err := e.fn(); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
	}
	fmt.Fprintf(out, "\nTotal: %v\n", time.Since(start).Round(time.Millisecond))
}

func step(out io.Writer, msg string) {
	fmt.Fprintf(out, "\n===== %s =====\n", msg)
}
