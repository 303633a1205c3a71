// Command bootes analyzes, reorders, and simulates sparse matrices with the
// Bootes pipeline. Matrices are read in Matrix Market or BCSR format and
// written in Matrix Market.
//
// Usage:
//
//	bootes analyze  -in A.mtx [-timeout 30s] [-strict] [-stats]   # features + gate decision
//	bootes reorder  -in A.mtx -out A_reordered.mtx [-k 8] [-force] [-model model.json]
//	bootes simulate -in A.mtx [-accel Flexagon] [-reorder bootes|gamma|graph|hier|none]
//	bootes compare  -in A.mtx [-accel GAMMA]      # all methods side by side
//	bootes spy      -in A.mtx [-pgm out.pgm]      # sparsity pattern plot
//	bootes plan     -in A.mtx [-server http://localhost:8080] [-async] [-tenant team-a]  # plan via a running bootesd
//
// Commands that run the planning pipeline (analyze, reorder, plan) accept
// -timeout (a planning deadline, enforced through PlanContext) and -strict
// (exit non-zero when the plan is degraded). The matrix's row count picks
// the similarity tier; the plan reports the one that ran. Degraded plans
// always print a warning to stderr.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bootes"
	"bootes/internal/accel"
	"bootes/internal/core"
	"bootes/internal/obs"
	"bootes/internal/plancache/atomicio"
	"bootes/internal/reorder"
	"bootes/internal/ring"
	"bootes/internal/sparse"
	"bootes/internal/spy"
	"bootes/internal/trafficmodel"
)

// osExit is swapped out by in-process CLI tests so exit codes can be asserted
// without forking a subprocess.
var osExit = os.Exit

// logPrefix starts every line the CLI logs. Errors from the bootes package
// start with the same word, which fatal drops.
const logPrefix = "bootes: "

func main() {
	initLog()
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "analyze":
		cmdAnalyze(args)
	case "reorder":
		cmdReorder(args)
	case "simulate":
		cmdSimulate(args)
	case "compare":
		cmdCompare(args)
	case "spy":
		cmdSpy(args)
	case "plan":
		cmdPlan(args)
	default:
		usage()
	}
}

// initLog sets up the standard logger the CLI prints its errors and
// warnings through.
func initLog() {
	log.SetFlags(0)
	log.SetPrefix(logPrefix)
}

// fatal logs err and exits 1, printing the program name once: a bootes
// package error already starts with the prefix the log adds.
func fatal(err error) {
	log.Print(strings.TrimPrefix(err.Error(), logPrefix))
	osExit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bootes <analyze|reorder|simulate|compare|spy|plan> [flags]")
	osExit(2)
}

// planCtx derives the planning context from a -timeout flag value (0 =
// none). Reaching the deadline degrades the plan to the identity order
// rather than failing it.
func planCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// warnDegraded surfaces a degraded plan on stderr and, under -strict, exits
// non-zero. Call it after all regular output has been printed.
func warnDegraded(degraded bool, reason string, strict bool) {
	if !degraded {
		return
	}
	log.Printf("warning: plan degraded: %s", reason)
	if strict {
		osExit(1)
	}
}

// writeFileAtomic publishes a CLI output file through the temp+fsync+rename
// protocol, so an interrupted run never leaves a torn output.
func writeFileAtomic(path string, write func(io.Writer) error) {
	if err := atomicio.WriteFile(path, write); err != nil {
		fatal(err)
	}
}

// readMatrix reads a Matrix Market or BCSR file, whatever its extension,
// through the decoder bootesd reads plan requests with.
func readMatrix(path string) *sparse.CSR {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	m, err := sparse.ReadBody(data)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return m
}

func loadModel(path string) *bootes.Model {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	m, err := bootes.LoadModel(data)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return m
}

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "input matrix (Matrix Market or BCSR)")
	model := fs.String("model", "", "trained decision-tree model (JSON)")
	seed := fs.Int64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "planning deadline (0 = none)")
	strict := fs.Bool("strict", false, "exit non-zero if the plan is degraded")
	stats := fs.Bool("stats", false, "print a per-stage planning time table")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("analyze: -in is required")
	}
	m := readMatrix(*in)
	fmt.Printf("matrix: %s\n", m)

	feats := core.ExtractFeatures(m)
	vec := feats.Vector()
	for i, name := range core.FeatureNames {
		fmt.Printf("  %-12s %.6g\n", name, vec[i])
	}

	ctx, cancel := planCtx(*timeout)
	defer cancel()
	var trace *obs.Trace
	if *stats {
		trace = obs.Default().NewTrace()
		ctx = obs.WithTrace(ctx, trace)
	}
	opts := &bootes.Options{Seed: *seed, Model: loadModel(*model)}
	plan, err := bootes.PlanContext(ctx, m, opts)
	if err != nil {
		fatal(err)
	}
	switch {
	case plan.Reordered:
		fmt.Printf("decision: reorder with k=%d (planning took %.3fs, footprint %d KB)\n",
			plan.K, plan.PreprocessSeconds, plan.FootprintBytes>>10)
	case plan.Degraded:
		fmt.Println("decision: keep the original order (planning fell back to the identity order)")
	default:
		fmt.Println("decision: do not reorder (predicted benefit below threshold)")
	}
	if plan.SimilarityMode != "" {
		fmt.Printf("similarity: %s tier\n", plan.SimilarityMode)
	}
	if trace != nil {
		fmt.Print(trace.Table())
	}
	warnDegraded(plan.Degraded, plan.DegradedReason, *strict)
}

func cmdReorder(args []string) {
	fs := flag.NewFlagSet("reorder", flag.ExitOnError)
	in := fs.String("in", "", "input matrix (Matrix Market or BCSR)")
	out := fs.String("out", "", "output path for the reordered matrix")
	permOut := fs.String("perm", "", "optional path to write the permutation (one old-row index per line)")
	k := fs.Int("k", 0, "force cluster count (2,4,8,16,32); 0 = let the gate choose")
	force := fs.Bool("force", false, "reorder even if the gate declines")
	model := fs.String("model", "", "trained decision-tree model (JSON)")
	seed := fs.Int64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "planning deadline (0 = none)")
	strict := fs.Bool("strict", false, "exit non-zero if the plan is degraded")
	fs.Parse(args)
	if *in == "" || *out == "" {
		log.Fatal("reorder: -in and -out are required")
	}
	m := readMatrix(*in)
	ctx, cancel := planCtx(*timeout)
	defer cancel()
	opts := &bootes.Options{Seed: *seed, ForceK: *k, ForceReorder: *force, Model: loadModel(*model)}
	plan, err := bootes.PlanContext(ctx, m, opts)
	if err != nil {
		// A -k outside the candidates lands here, with the error naming them.
		fatal(err)
	}
	if !plan.Reordered {
		fmt.Println("gate declined to reorder; writing the matrix unchanged (use -force to override)")
	}
	pm, err := plan.Apply(m)
	if err != nil {
		fatal(err)
	}
	writeFileAtomic(*out, func(w io.Writer) error {
		return sparse.WriteMatrixMarket(w, pm)
	})
	if *permOut != "" {
		writeFileAtomic(*permOut, func(w io.Writer) error {
			for _, old := range plan.Perm {
				if _, err := fmt.Fprintln(w, old); err != nil {
					return err
				}
			}
			return nil
		})
	}
	fmt.Printf("reordered %s -> %s (k=%d, %.3fs)\n", *in, *out, plan.K, plan.PreprocessSeconds)
	warnDegraded(plan.Degraded, plan.DegradedReason, *strict)
}

func accelByName(name string) (accel.Config, bool) {
	for _, cfg := range accel.Targets() {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return accel.Config{}, false
}

// reordererByName names the reorderings simulate and compare run. timeout
// (0 = none) is the Bootes planning deadline; the baselines run to
// completion regardless.
func reordererByName(name string, seed int64, timeout time.Duration) (reorder.Reorderer, bool) {
	switch name {
	case "bootes":
		return planner{seed: seed, timeout: timeout}, true
	case "gamma":
		return reorder.Gamma{Seed: seed}, true
	case "graph":
		return reorder.Graph{Seed: seed}, true
	case "hier":
		return reorder.Hier{}, true
	case "none", "original":
		return reorder.Original{}, true
	default:
		return nil, false
	}
}

// planner plans the way analyze, reorder and plan do: through PlanContext, so
// the plan is verified, with timeout (0 = none) as its deadline.
type planner struct {
	seed    int64
	timeout time.Duration
}

func (planner) Name() string { return "Bootes" }

func (p planner) Reorder(a *sparse.CSR) (*reorder.Result, error) {
	ctx, cancel := planCtx(p.timeout)
	defer cancel()
	plan, err := bootes.PlanContext(ctx, a, &bootes.Options{Seed: p.seed})
	if err != nil {
		return nil, err
	}
	return &reorder.Result{
		Perm:           plan.Perm,
		PreprocessTime: time.Duration(plan.PreprocessSeconds * float64(time.Second)),
		FootprintBytes: plan.FootprintBytes,
		Reordered:      plan.Reordered,
		Degraded:       plan.Degraded,
		DegradedReason: plan.DegradedReason,
	}, nil
}

func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("in", "", "input matrix A (B is A, or Aᵀ when A is rectangular)")
	accelName := fs.String("accel", "Flexagon", "accelerator: Flexagon, GAMMA, Trapezoid")
	method := fs.String("reorder", "bootes", "reordering: bootes, gamma, graph, hier, none")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("simulate: -in is required")
	}
	cfg, ok := accelByName(*accelName)
	if !ok {
		log.Fatalf("unknown accelerator %q", *accelName)
	}
	r, ok := reordererByName(*method, *seed, 0)
	if !ok {
		log.Fatalf("unknown reordering method %q", *method)
	}

	a := readMatrix(*in)
	b := trafficmodel.OperandB(a)
	res, err := r.Reorder(a)
	if err != nil {
		fatal(err)
	}
	ap := a
	if !res.Perm.IsIdentity() {
		ap, err = sparse.PermuteRows(a, res.Perm)
		if err != nil {
			fatal(err)
		}
	}
	sim, err := accel.SimulateRowWise(cfg, ap, b)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("accelerator: %s\n", cfg)
	fmt.Printf("reordering:  %s (%.3fs preprocessing)\n", r.Name(), res.PreprocessTime.Seconds())
	fmt.Printf("traffic:     A %d B %d C %d total %d bytes (compulsory %d)\n",
		sim.Traffic.ABytes, sim.Traffic.BBytes, sim.Traffic.CBytes,
		sim.Traffic.Total(), sim.Compulsory.Total())
	fmt.Printf("compute:     %d MACs, nnz(C)=%d, %d cycles (%.6fs at %.1f GHz)\n",
		sim.Flops, sim.OutputNNZ, sim.Cycles, sim.Seconds(), 1.0)
	warnDegraded(res.Degraded, res.DegradedReason, false)
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("in", "", "input matrix (Matrix Market or BCSR)")
	accelName := fs.String("accel", "GAMMA", "accelerator: Flexagon, GAMMA, Trapezoid")
	seed := fs.Int64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "per-method planning deadline (0 = none; only Bootes honors it)")
	strict := fs.Bool("strict", false, "exit non-zero if any plan is degraded")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("compare: -in is required")
	}
	cfg, ok := accelByName(*accelName)
	if !ok {
		log.Fatalf("unknown accelerator %q", *accelName)
	}
	a := readMatrix(*in)
	b := trafficmodel.OperandB(a)
	fmt.Printf("%s on %s\n", a, cfg)
	fmt.Printf("%-10s %12s %12s %14s %12s\n", "method", "preproc(s)", "B traffic", "total traffic", "vs none")
	var baseTotal int64
	degradedReasons := map[string]string{}
	for _, name := range []string{"none", "gamma", "graph", "hier", "bootes"} {
		r, _ := reordererByName(name, *seed, *timeout)
		res, err := r.Reorder(a)
		if err != nil {
			fatal(err)
		}
		if res.Degraded {
			degradedReasons[name] = res.DegradedReason
		}
		// Quick traffic estimate via the row-LRU model, plus full sim total.
		est, err := trafficmodel.EstimateBWithPerm(a, b, res.Perm, cfg.CacheBytes, 12)
		if err != nil {
			fatal(err)
		}
		ap := a
		if !res.Perm.IsIdentity() {
			ap, err = sparse.PermuteRows(a, res.Perm)
			if err != nil {
				fatal(err)
			}
		}
		sim, err := accel.SimulateRowWise(cfg, ap, b)
		if err != nil {
			fatal(err)
		}
		if name == "none" {
			baseTotal = sim.Traffic.Total()
		}
		fmt.Printf("%-10s %12.3f %12d %14d %11.2fx\n",
			name, res.PreprocessTime.Seconds(), est.BTraffic, sim.Traffic.Total(),
			float64(baseTotal)/float64(sim.Traffic.Total()))
	}
	for _, name := range []string{"none", "gamma", "graph", "hier", "bootes"} {
		if reason, ok := degradedReasons[name]; ok {
			log.Printf("warning: %s plan degraded: %s", name, reason)
		}
	}
	if *strict && len(degradedReasons) > 0 {
		osExit(1)
	}
}

func cmdSpy(args []string) {
	fs := flag.NewFlagSet("spy", flag.ExitOnError)
	in := fs.String("in", "", "input matrix (Matrix Market or BCSR)")
	pgm := fs.String("pgm", "", "also write a PGM image to this path")
	width := fs.Int("width", 64, "ASCII plot width")
	height := fs.Int("height", 32, "ASCII plot height")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("spy: -in is required")
	}
	m := readMatrix(*in)
	fmt.Printf("%s\n", m)
	fmt.Print(spy.ASCII(m, spy.Options{Width: *width, Height: *height}))
	if *pgm != "" {
		writeFileAtomic(*pgm, func(w io.Writer) error {
			return spy.WritePGM(w, m, spy.Options{})
		})
		fmt.Printf("wrote %s\n", *pgm)
	}
}

// cmdPlan plans a matrix through a running bootesd daemon, falling back to
// an in-process PlanContext when no -server is given (optionally with a
// local persistent plan cache, the same format the daemon uses).
func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	in := fs.String("in", "", "input matrix (Matrix Market or BCSR)")
	server := fs.String("server", "", "bootesd base URL(s), comma-separated for a fleet (e.g. http://a:8080,http://b:8080); empty plans in-process")
	cacheDir := fs.String("cache", "", "local plan cache directory (in-process mode only)")
	model := fs.String("model", "", "trained decision-tree model (JSON; in-process mode only)")
	seed := fs.Int64("seed", 1, "random seed (in-process mode only)")
	timeout := fs.Duration("timeout", 60*time.Second, "planning deadline (sent as X-Deadline to the daemon)")
	maxWait := fs.Duration("max-wait", 0, "total wall-clock budget across shed retries and failovers (default 2x timeout + 30s)")
	strict := fs.Bool("strict", false, "exit non-zero if the plan is degraded")
	async := fs.Bool("async", false, "submit to the daemon's async queue and poll the job until it finishes (needs -server)")
	tenant := fs.String("tenant", "", "tenant identity sent as X-Tenant (quota accounting on the daemon)")
	retries := fs.Int("retries", 5, "max retries when the daemon sheds with 429 (Retry-After is honored)")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("plan: -in is required")
	}
	if *server != "" {
		planRemote(*server, *in, *timeout, *maxWait, *strict, *async, *tenant, *retries)
		return
	}
	if *async {
		log.Fatal("plan: -async requires -server (in-process planning is already synchronous)")
	}

	m := readMatrix(*in)
	ctx, cancel := planCtx(*timeout)
	defer cancel()
	opts := &bootes.Options{Seed: *seed, Model: loadModel(*model)}
	if *cacheDir != "" {
		cache, err := bootes.OpenPlanCache(*cacheDir)
		if err != nil {
			log.Fatalf("opening plan cache: %v", err)
		}
		opts.Cache = cache
	}
	plan, err := bootes.PlanContext(ctx, m, opts)
	if err != nil {
		fatal(err)
	}
	source := "computed"
	if plan.FromCache {
		source = "cache hit"
	}
	fmt.Printf("key:       %s\n", bootes.MatrixKey(m))
	fmt.Printf("plan:      reordered=%v k=%d (%s, %.3fs, footprint %d KB)\n",
		plan.Reordered, plan.K, source, plan.PreprocessSeconds, plan.FootprintBytes>>10)
	if plan.SimilarityMode != "" {
		fmt.Printf("similarity: %s tier\n", plan.SimilarityMode)
	}
	warnDegraded(plan.Degraded, plan.DegradedReason, *strict)
}

// remotePlan mirrors the daemon's PlanResponse fields the CLI reports on.
type remotePlan struct {
	Key               string  `json:"key"`
	Reordered         bool    `json:"reordered"`
	K                 int     `json:"k"`
	Degraded          bool    `json:"degraded"`
	DegradedReason    string  `json:"degradedReason"`
	PreprocessSeconds float64 `json:"preprocessSeconds"`
	Cached            bool    `json:"cached"`
	Coalesced         bool    `json:"coalesced"`
	Breaker           string  `json:"breaker"`
}

// remoteJob mirrors the daemon's JobResponse for the async submit/poll path.
type remoteJob struct {
	JobID    string      `json:"job_id"`
	State    string      `json:"state"`
	Attempts int         `json:"attempts"`
	Deduped  bool        `json:"deduped"`
	Reason   string      `json:"reason"`
	Plan     *remotePlan `json:"plan"`
}

// remoteClient wraps one or more bootesd endpoints with shed-aware retries
// and fleet failover: a 429 reply is retried up to maxRetries times (and
// within the retryBudget wall-clock cap), sleeping for the server's
// Retry-After hint (jittered so a shed burst does not re-synchronize); a
// transport error or 5xx fails over to the next server in ring-preference
// order. net/http follows 307/308 redirects itself, re-sending the payload.
type remoteClient struct {
	bases      []string // ring-preference order; bases[0] is primary
	client     *http.Client
	tenant     string
	maxRetries int
	rng        *rand.Rand
	ctx        context.Context // cancelled on SIGINT/SIGTERM
	retryStop  time.Time       // wall-clock cap across all retry sleeps
}

// sleep waits d or until the client is interrupted, whichever is first.
func (c *remoteClient) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.ctx.Done():
		log.Fatalf("interrupted while waiting to retry")
	}
}

// do issues one request and returns the final response metadata, its
// size-capped body, and the server that answered. Retried-429 sleeps never
// push past retryStop: a server that keeps answering "Retry-After: 30"
// cannot hold the CLI hostage beyond -max-wait. Only 429s are retried in
// place; transport errors and 5xx move on to the next server; other
// failures are the caller's to interpret.
func (c *remoteClient) do(method, path string, payload []byte, deadline time.Duration) (*http.Response, []byte, string) {
	for attempt := 0; ; attempt++ {
		resp, reply, base := c.doOnce(method, path, payload, deadline)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return resp, reply, base
		}
		wait := c.backoff(resp.Header.Get("Retry-After"), attempt)
		if budget := time.Until(c.retryStop); wait > budget {
			log.Printf("daemon shedding (429) and the %s retry budget is exhausted; giving up", wait.Round(time.Millisecond))
			return resp, reply, base
		}
		log.Printf("daemon shedding (429): %s — retrying in %s (%d/%d)",
			strings.TrimSpace(string(reply)), wait.Round(time.Millisecond), attempt+1, c.maxRetries)
		c.sleep(wait)
	}
}

// doOnce walks the server list once in preference order until some server
// produces a non-5xx response, and returns it with that server.
func (c *remoteClient) doOnce(method, path string, payload []byte, deadline time.Duration) (*http.Response, []byte, string) {
	var lastErr error
	for i, base := range c.bases {
		resp, reply, err := c.roundTrip(method, base+path, payload, deadline)
		switch {
		case err != nil:
			lastErr = err
			if i < len(c.bases)-1 {
				log.Printf("server %s unreachable (%v), failing over", base, err)
			}
		case resp.StatusCode >= http.StatusInternalServerError && i < len(c.bases)-1:
			log.Printf("server %s answered %s, failing over", base, resp.Status)
			lastErr = fmt.Errorf("%s: %s", base, resp.Status)
		default:
			return resp, reply, base
		}
	}
	log.Fatalf("no server answered: %v", lastErr)
	return nil, nil, ""
}

// roundTrip is one HTTP exchange against one URL.
func (c *remoteClient) roundTrip(method, url string, payload []byte, deadline time.Duration) (*http.Response, []byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, body)
	if err != nil {
		fatal(err)
	}
	if deadline > 0 {
		req.Header.Set("X-Deadline", deadline.String())
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if c.ctx.Err() != nil {
			log.Fatalf("interrupted: %v", c.ctx.Err())
		}
		return nil, nil, err
	}
	reply, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, reply, nil
}

// backoff converts a Retry-After header into a sleep. The server's hint wins
// when present (quota refill times are tenant-specific); otherwise the delay
// grows exponentially from 500ms. Both are capped at 30s and stretched by up
// to 50% jitter so concurrent shed clients do not retry in lockstep.
func (c *remoteClient) backoff(retryAfter string, attempt int) time.Duration {
	wait := 500 * time.Millisecond << min(attempt, 10)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	return wait + time.Duration(c.rng.Int63n(int64(wait)/2+1))
}

// planRemote posts the matrix file to a bootesd daemon (or fleet) and prints
// the reply, either synchronously or (with -async) via the durable job queue.
// With several servers the matrix is hashed locally and the list is reordered
// to ring preference, so the first try lands on the key's owner and a cache
// hit costs one hop.
func planRemote(server, in string, timeout, maxWait time.Duration, strict, async bool, tenant string, maxRetries int) {
	payload, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	var bases []string
	for _, s := range strings.Split(server, ",") {
		if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
			bases = append(bases, s)
		}
	}
	if len(bases) == 0 {
		log.Fatal("plan: -server lists no URLs")
	}
	if len(bases) > 1 {
		// Hash the matrix locally and reorder the server list to the key's
		// ring preference: the first try lands on the owner, so a fleet-wide
		// cache hit costs one hop and no forward.
		if m, err := sparse.ReadBody(payload); err == nil {
			if r, rerr := ring.New(bases, 0); rerr == nil {
				bases = r.Replicas(bootes.MatrixKey(m), len(bases))
			}
		}
	}
	client := &http.Client{}
	if timeout > 0 {
		// Leave headroom over the planning deadline for transfer time.
		client.Timeout = timeout + 30*time.Second
	}
	if maxWait <= 0 {
		maxWait = 5 * time.Minute
		if timeout > 0 {
			maxWait = 2*timeout + 30*time.Second
		}
	}
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	c := &remoteClient{
		bases:      bases,
		client:     client,
		tenant:     tenant,
		maxRetries: max(maxRetries, 0),
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		ctx:        ctx,
		retryStop:  time.Now().Add(maxWait),
	}
	if async {
		planRemoteAsync(c, payload, timeout, strict)
		return
	}
	resp, body, base := c.do(http.MethodPost, "/v1/plan", payload, timeout)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
	}
	var pr remotePlan
	if err := json.Unmarshal(body, &pr); err != nil {
		log.Fatalf("decoding daemon response: %v", err)
	}
	source := "computed"
	switch {
	case pr.Cached:
		source = "cache hit"
	case pr.Coalesced:
		source = "coalesced"
	case pr.Breaker == "open":
		source = "breaker fast-path"
	}
	printRemotePlan(&pr, source)
	warnDegraded(pr.Degraded, pr.DegradedReason, strict)
}

// planRemoteAsync enqueues the matrix on the daemon's durable queue and polls
// the job until it reaches a terminal state. A job observed as failed is not
// fatal — the queue retries it with backoff — only dead (retries exhausted)
// ends the wait early. Job ids are per-node sequences, so every poll goes to
// the server that accepted the job: another may hold a different job under
// the same id.
func planRemoteAsync(c *remoteClient, payload []byte, timeout time.Duration, strict bool) {
	resp, body, base := c.do(http.MethodPost, "/v1/plan?async=1", payload, timeout)
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("%s: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
	}
	c.bases = []string{base}
	var jb remoteJob
	if err := json.Unmarshal(body, &jb); err != nil {
		log.Fatalf("decoding job handle: %v", err)
	}
	if jb.Deduped {
		log.Printf("joined existing job %s (state %s)", jb.JobID, jb.State)
	} else {
		log.Printf("submitted job %s", jb.JobID)
	}

	// Poll budget: the planning deadline bounds one attempt, not time spent
	// queued behind other tenants, so the wait allows for retries and queueing
	// on top of the plan's own clock.
	budget := 15 * time.Minute
	if timeout > 0 {
		budget = 3*timeout + time.Minute
	}
	deadline := time.Now().Add(budget)
	interval := 200 * time.Millisecond
	lastState := jb.State
	for {
		resp, body, _ = c.do(http.MethodGet, "/v1/jobs/"+jb.JobID, nil, 0)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("polling job %s: %s: %s", jb.JobID, resp.Status, strings.TrimSpace(string(body)))
		}
		if err := json.Unmarshal(body, &jb); err != nil {
			log.Fatalf("decoding job %s: %v", jb.JobID, err)
		}
		if jb.State != lastState {
			log.Printf("job %s: %s", jb.JobID, jb.State)
			lastState = jb.State
		}
		switch jb.State {
		case "done":
			if jb.Plan == nil {
				log.Fatalf("job %s done but carried no plan", jb.JobID)
			}
			source := "computed"
			if jb.Plan.Cached {
				source = "cache hit"
			}
			printRemotePlan(jb.Plan, fmt.Sprintf("%s, async, %d attempt(s)", source, jb.Attempts))
			warnDegraded(jb.Plan.Degraded, jb.Plan.DegradedReason, strict)
			return
		case "dead":
			log.Fatalf("job %s is dead after %d attempts: %s", jb.JobID, jb.Attempts, jb.Reason)
		}
		if time.Now().After(deadline) {
			log.Fatalf("job %s still %s after %s; it keeps running server-side — poll %s/v1/jobs/%s",
				jb.JobID, jb.State, budget, base, jb.JobID)
		}
		c.sleep(interval)
		if interval < 2*time.Second {
			interval *= 2
		}
	}
}

// printRemotePlan prints the daemon-reported plan summary.
func printRemotePlan(pr *remotePlan, source string) {
	fmt.Printf("key:       %s\n", pr.Key)
	fmt.Printf("plan:      reordered=%v k=%d (%s, %.3fs)\n",
		pr.Reordered, pr.K, source, pr.PreprocessSeconds)
}
