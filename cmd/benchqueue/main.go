// Command benchqueue measures the durable async plan queue in isolation —
// the record behind BENCH_queue.json. Three phases over one journal:
//
//  1. enqueue: spool + fsync-acked journal appends, workers idle
//     (sustained submission throughput and journal growth);
//  2. replay: close the queue cold and reopen it, timing the journal replay
//     that rebuilds the full backlog (the crash-recovery path);
//  3. drain: start the worker pool with an instant stub RunFunc and wait for
//     the backlog to finish (weighted-fair dequeue, spool load, terminal
//     journaling, compaction), isolating queue machinery from planning cost.
//
// Rerun (from the repo root):
//
//	go run ./cmd/benchqueue -jobs 10000 -out BENCH_queue.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"bootes/internal/planqueue"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

type results struct {
	EnqueueJobs      int     `json:"enqueue_jobs"`
	EnqueueSeconds   float64 `json:"enqueue_seconds"`
	EnqueuePerSec    float64 `json:"enqueue_jobs_per_sec"`
	JournalBytes     int64   `json:"journal_bytes_after_enqueue"`
	ReplayJobs       int64   `json:"replay_jobs"`
	ReplaySeconds    float64 `json:"replay_seconds"`
	ReplayJobsPerSec float64 `json:"replay_jobs_per_sec"`
	DrainSeconds     float64 `json:"drain_seconds"`
	DrainPerSec      float64 `json:"drain_jobs_per_sec"`
	Compactions      int64   `json:"compactions"`
	FinalJournal     int64   `json:"journal_bytes_after_drain"`
}

type document struct {
	Description string            `json:"description"`
	Environment map[string]any    `json:"environment"`
	Workload    map[string]any    `json:"workload"`
	Commands    []string          `json:"commands"`
	Results     results           `json:"results"`
	Summary     map[string]string `json:"summary"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchqueue: ")
	jobs := flag.Int("jobs", 10000, "jobs to enqueue (distinct matrices, so nothing dedupes)")
	workers := flag.Int("workers", 4, "drain-phase worker pool size")
	tenants := flag.Int("tenants", 4, "tenants to spread jobs across (weights 1..n)")
	rows := flag.Int("rows", 16, "rows per synthetic matrix (kept tiny: the queue is under test, not the pipeline)")
	seed := flag.Int64("seed", 7, "workload seed")
	dir := flag.String("dir", "", "queue directory (default: a temp dir, removed afterwards)")
	out := flag.String("out", "", "write the JSON document here (empty = stdout)")
	flag.Parse()

	qdir := *dir
	if qdir == "" {
		var err error
		if qdir, err = os.MkdirTemp("", "benchqueue-*"); err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(qdir)
	}

	// The stub RunFunc completes instantly with a structurally valid plan
	// (row reversal), so the drain phase times dequeue + spool + journal
	// machinery rather than planning, which bootesd's RunFunc (planserve's
	// RunJob: lookup, pipeline, verify, cache write) adds on top.
	run := func(ctx context.Context, key string, m *sparse.CSR) (*reorder.Result, bool, error) {
		p := make(sparse.Permutation, m.Rows)
		for i := range p {
			p[i] = int32(m.Rows - 1 - i)
		}
		return &reorder.Result{Perm: p, Reordered: true, Extra: map[string]float64{"k": 4}}, false, nil
	}
	weights := make(map[string]float64, *tenants)
	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
		weights[names[i]] = float64(1 + i)
	}
	cfg := planqueue.Config{
		Dir:                qdir,
		Workers:            *workers,
		MaxQueued:          *jobs + 1,
		MaxQueuedPerTenant: *jobs + 1,
		Weights:            weights,
		Seed:               *seed,
	}

	q, err := planqueue.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("enqueueing %d jobs (%d tenants, %dx%d matrices) into %s", *jobs, *tenants, *rows, *rows, qdir)
	matrices := make([]*sparse.CSR, *jobs)
	for i := range matrices {
		matrices[i] = workloads.Generate(workloads.ArchRandom, workloads.Params{
			Rows: *rows, Cols: *rows, Density: 0.2, Seed: *seed + int64(i),
		})
	}
	var res results
	res.EnqueueJobs = *jobs
	start := time.Now()
	for i, m := range matrices {
		if _, dup, err := q.Enqueue(names[i%*tenants], m); err != nil {
			log.Fatalf("enqueue %d: %v", i, err)
		} else if dup {
			log.Fatalf("enqueue %d: unexpected dedupe (matrix seeds must differ)", i)
		}
	}
	res.EnqueueSeconds = time.Since(start).Seconds()
	res.EnqueuePerSec = float64(*jobs) / res.EnqueueSeconds
	res.JournalBytes = q.Stats().JournalBytes
	q.Kill() // cold stop: nothing ran, the whole backlog is journal-only

	start = time.Now()
	q, err = planqueue.Open(cfg)
	if err != nil {
		log.Fatalf("reopen: %v", err)
	}
	res.ReplaySeconds = time.Since(start).Seconds()
	res.ReplayJobs = q.Stats().Depth
	res.ReplayJobsPerSec = float64(res.ReplayJobs) / res.ReplaySeconds
	if res.ReplayJobs != int64(*jobs) {
		log.Fatalf("replay recovered %d jobs, want %d", res.ReplayJobs, *jobs)
	}
	log.Printf("replayed %d jobs in %.3fs", res.ReplayJobs, res.ReplaySeconds)

	q.Start(run)
	start = time.Now()
	if err := q.WaitIdle(context.Background()); err != nil {
		log.Fatalf("drain: %v", err)
	}
	res.DrainSeconds = time.Since(start).Seconds()
	res.DrainPerSec = float64(*jobs) / res.DrainSeconds
	st := q.Stats()
	res.Compactions = st.Compactions
	if st.Done != int64(*jobs) {
		log.Fatalf("drained %d done jobs, want %d (failed=%d dead=%d)", st.Done, *jobs, st.Failed, st.Dead)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := q.Stop(ctx); err != nil {
		log.Fatalf("stop: %v", err)
	}
	res.FinalJournal = q.Stats().JournalBytes
	log.Printf("drained %d jobs in %.3fs (%d compactions)", *jobs, res.DrainSeconds, res.Compactions)

	doc := document{
		Description: "Durable async plan queue: enqueue (fsync-acked) throughput, cold journal replay, and worker-pool drain throughput with an instant stub planner. Queue machinery only; pipeline cost is excluded by design.",
		Environment: map[string]any{
			"go":       runtime.Version(),
			"goos":     runtime.GOOS,
			"goarch":   runtime.GOARCH,
			"cpus":     runtime.NumCPU(),
			"recorded": time.Now().UTC().Format(time.RFC3339),
		},
		Workload: map[string]any{
			"jobs":    *jobs,
			"tenants": *tenants,
			"weights": weights,
			"rows":    *rows,
			"seed":    *seed,
			"workers": *workers,
		},
		Commands: []string{
			fmt.Sprintf("go run ./cmd/benchqueue -jobs %d -workers %d -tenants %d -seed %d -out BENCH_queue.json",
				*jobs, *workers, *tenants, *seed),
		},
		Results: res,
		Summary: map[string]string{
			"enqueue": fmt.Sprintf("%.0f jobs/s acked (fsync per ack), journal %d KB at %d jobs",
				res.EnqueuePerSec, res.JournalBytes>>10, *jobs),
			"replay": fmt.Sprintf("%.3fs to rebuild a %d-job backlog from the journal (%.0f jobs/s)",
				res.ReplaySeconds, res.ReplayJobs, res.ReplayJobsPerSec),
			"drain": fmt.Sprintf("%.0f jobs/s through %d workers (WFQ dequeue + terminal journaling + %d compactions), journal %d KB after drain",
				res.DrainPerSec, *workers, res.Compactions, res.FinalJournal>>10),
		},
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
