// Command e2ebench is the end-to-end benchmark of the Bootes plan service. It
// starts the built bootesd binary as separate processes (one node, or a
// three-node -peers/-self fleet), drives them closed-loop over loopback with
// seed-generated matrices, checks every answer, and prints the end-to-end
// metrics of one workload. With -trace 1 it also replays the workload's
// requests in-process, timing the calls into each layer, and prints the
// per-layer metrics instead. The last line of standard output is a JSON
// summary. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash e2ebench/run.sh --workload cold-sparse --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"bootes/internal/plancache"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

const (
	// holdoutSeed is the seed kept out of tuning: a later claim of a gain
	// must also hold on it.
	holdoutSeed = 7919
	// coldWarmups are the cold requests sent, untimed, before the timed
	// section; a hot workload's warm-up is one pass over its schedule block.
	coldWarmups = 3
	// hotPerSecond bounds the hot request rate, sizing the hot schedule so it
	// outlasts the run.
	hotPerSecond = 2000
	// replicas is bootesd's default -replicas: the key's owner plus one.
	replicas = 2
	// setups is how many times a run sets up from scratch; setup_s is their
	// median, and the last set-up is the one timed.
	setups = 3
	// coldPerSecond is how many matrices a cold workload generates per
	// second of run time: above what one client completes, so the request
	// list outlasts the run.
	coldPerSecond = 16
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	bootesd  string
	workdir  string
	commit   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (cold-sparse, cold-dense, hot-fleet)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.Float64Var(&o.seconds, "seconds", 25, "timed section length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the in-process traced replay and prints per-layer metrics")
	flag.StringVar(&o.bootesd, "bootesd", ".bench_build/bootesd", "bootesd binary to drive")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for node caches and logs")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, recorded in the output")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	os.Exit(code)
}

// rig is one set-up: running nodes and the timed request list.
type rig struct {
	nodes []*node
	jobs  []*job
	// Hot workloads: the working set and each matrix's set-up answer.
	set     []*matrix
	setPerm [][]int32
}

func (r *rig) close() { stopNodes(r.nodes) }

func run(ctx context.Context, o options, out io.Writer) (int, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return 2, err
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return 2, errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	if _, err := os.Stat(o.bootesd); err != nil {
		return 1, fmt.Errorf("bootesd binary: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	clients := min(w.clients, runtime.NumCPU())
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.nodes * clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()

	var setupTimes []float64
	var rg *rig
	for s := 0; s < setups; s++ {
		if rg != nil {
			rg.close()
		}
		t := time.Now()
		rg, err = setUp(ctx, w, o, client, filepath.Join(dir, fmt.Sprint(s)))
		if err != nil {
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, since(t))
	}
	defer rg.close()

	before, err := scrapeAll(client, rg.nodes)
	if err != nil {
		return 1, err
	}
	rssReset := resetPeakRSS(rg.nodes)
	results, wall, t := drive(ctx, client, rg.jobs, w.hot, clients, time.Duration(o.seconds*float64(time.Second)))
	if ctx.Err() != nil {
		return 1, ctx.Err()
	}
	rss, err := peakRSS(rg.nodes)
	if err != nil {
		return 1, err
	}
	after, err := scrapeAll(client, rg.nodes)
	if err != nil {
		return 1, err
	}

	rep := &report{w: w, o: o, clients: clients, tally: t, wall: wall, results: results,
		setupTimes: setupTimes, rss: rss, rssReset: rssReset, counters: delta(before, after)}
	if err := rep.endToEnd(rg); err != nil {
		return 1, err
	}
	if o.trace == 1 {
		if err := rep.traced(ctx, rg, filepath.Join(dir, "replay-cache")); err != nil {
			return 1, err
		}
	}
	if err := rep.print(out); err != nil {
		return 1, err
	}
	if t.wrong > 0 {
		return 1, fmt.Errorf("%d wrong answers", t.wrong)
	}
	return 0, nil
}

// setUp generates the workload's matrices, starts its nodes, plans the
// working set (hot workloads), and sends an untimed warm-up pass.
func setUp(ctx context.Context, w *workload, o options, client *http.Client, dir string) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := 2 * len(w.specs)
	if !w.hot {
		n = coldWarmups + coldPerSecond*int(math.Ceil(o.seconds))
	}
	ms, err := corpus(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	nodes, err := startNodes(ctx, o.bootesd, dir, w.nodes)
	if err != nil {
		return nil, err
	}
	rg := &rig{nodes: nodes}
	if w.hot {
		err = rg.planWorkingSet(ctx, client, ms, o.seed, int(math.Ceil(o.seconds))*hotPerSecond)
	} else {
		err = rg.coldJobs(ctx, client, ms)
	}
	if err != nil {
		rg.close()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) coldJobs(ctx context.Context, client *http.Client, ms []*matrix) error {
	for _, m := range ms {
		rg.jobs = append(rg.jobs, &job{url: rg.nodes[0].url, m: m})
	}
	var t tally
	for _, j := range rg.jobs[:coldWarmups] {
		send(ctx, client, j, false, &t)
	}
	rg.jobs = rg.jobs[coldWarmups:]
	return warmupErr(t)
}

// planWorkingSet plans every working-set matrix once through its ring owner
// (the misses whose answers every later hit must repeat), builds the
// owner-relative hot schedule, and sends one warm-up block of it.
func (rg *rig) planWorkingSet(ctx context.Context, client *http.Client, ms []*matrix, seed int64, n int) error {
	urls := make([]string, len(rg.nodes))
	for i, nd := range rg.nodes {
		urls[i] = nd.url
	}
	rng, err := ring.New(urls, 0) // bootesd's default -vnodes
	if err != nil {
		return err
	}
	targets := make([][numRoles]string, len(ms))
	reps := make([][]string, len(ms))
	rg.set = ms
	for i, m := range ms {
		reps[i] = rng.Replicas(m.key, replicas)
		targets[i][roleOwner], targets[i][roleReplica] = reps[i][0], reps[i][1]
		for _, u := range urls {
			if u != reps[i][0] && u != reps[i][1] {
				targets[i][roleOther] = u
			}
		}
		var t tally
		r := send(ctx, client, &job{url: reps[i][0], m: m}, false, &t)
		if err := warmupErr(t); err != nil {
			return fmt.Errorf("planning working-set matrix %d: %w", i, err)
		}
		rg.setPerm = append(rg.setPerm, r.perm)
	}
	for _, st := range hotSchedule(seed, len(ms), n) {
		rg.jobs = append(rg.jobs, &job{url: targets[st.matrix][st.role], m: ms[st.matrix],
			replicas: reps[st.matrix], want: rg.setPerm[st.matrix]})
	}
	var t tally
	for _, j := range rg.jobs[:len(ms)*numRoles] {
		send(ctx, client, j, true, &t)
	}
	return warmupErr(t)
}

func warmupErr(t tally) error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d untimed requests failed: %v", t.failed, t.attempted, t.reasons)
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type report struct {
	w          *workload
	o          options
	clients    int
	tally      tally
	wall       time.Duration
	results    []result
	setupTimes []float64
	rss        int64
	rssReset   bool
	counters   map[string]float64

	e2e, perLayer []metric
	okLat         []float64 // sorted latencies of correct answers
	traffic       trafficSum
	trafficDef    trafficSum
	replayed      int
	layerTotal    float64
}

// endToEnd derives the end-to-end metrics from the timed run and computes
// the modelled traffic ratio from the served permutations.
func (r *report) endToEnd(rg *rig) error {
	for _, res := range r.results {
		if res.ok {
			r.okLat = append(r.okLat, res.seconds)
		}
	}
	sort.Float64s(r.okLat)
	n := len(r.okLat)
	p50, _ := percentile(r.okLat, 0.5)
	p90, beyond := percentile(r.okLat, 0.9)
	p90note := fmt.Sprintf("n=%d, %d beyond", n, beyond)
	if beyond < minBeyond {
		p90note += " (fewer than 10: untrusted)"
	}

	// The ratio covers each distinct matrix once, under the permutation
	// bootesd served for it.
	add := func(m *matrix, perm []int32) error {
		a, err := decode(m.body)
		if err != nil {
			return err
		}
		if err := r.traffic.add(a, perm, trafficCache); err != nil {
			return err
		}
		return r.trafficDef.add(a, perm, trafficCacheDefault)
	}
	distinct := 0
	if r.w.hot {
		for i, m := range rg.set {
			if err := add(m, rg.setPerm[i]); err != nil {
				return err
			}
		}
		distinct = len(rg.set)
	} else {
		for i, res := range r.results {
			if res.ok {
				if err := add(rg.jobs[i].m, res.perm); err != nil {
					return err
				}
				distinct++
			}
		}
	}

	// Throughput in ten equal windows of the timed section, to show whether
	// the run was steady.
	var win [10]float64
	for _, res := range r.results {
		win[min(9, int(10*res.at/r.wall.Seconds()))]++
	}
	for i := range win {
		win[i] /= r.wall.Seconds() / 10
	}
	sort.Float64s(win[:])

	r.e2e = []metric{
		{"setup_s", median(r.setupTimes), "s", fmt.Sprintf("median of %d set-ups %.3f", len(r.setupTimes), r.setupTimes)},
		{"throughput_rps", float64(len(r.results)) / r.wall.Seconds(), "1/s",
			fmt.Sprintf("%d completed in %.2f s, %d closed-loop client(s); tenths of the run: min %.4g median %.4g max %.4g",
				len(r.results), r.wall.Seconds(), r.clients, win[0], (win[4]+win[5])/2, win[9])},
		{"lat_p50_s", p50, "s", fmt.Sprintf("n=%d", n)},
		{"lat_p90_s", p90, "s", p90note},
		{"traffic_ratio", r.traffic.ratio(), "ratio", fmt.Sprintf(
			"modelled B bytes permuted/identity over %d distinct matrices (trafficmodel row LRU, %d KiB cache, %d B/elem); "+
				"not validated against hardware; %.4f at planverify's 1 MiB default cache",
			distinct, trafficCache>>10, elemBytes, r.trafficDef.ratio())},
		{"peak_rss_bytes", float64(r.rss), "bytes", fmt.Sprintf("summed VmHWM of %d bootesd process(es)%s",
			len(rg.nodes), map[bool]string{true: ", timed section only", false: ", including set-up (peak reset unsupported)"}[r.rssReset])},
	}
	return nil
}

// traced replays the workload in-process and derives the per-layer metrics,
// adding the node counters from the timed run.
func (r *report) traced(ctx context.Context, rg *rig, cacheDir string) error {
	cache, err := plancache.Open(cacheDir)
	if err != nil {
		return err
	}
	var reqs []*matrix
	var served [][]int32
	var timed []float64
	if r.w.hot {
		for i, m := range rg.set {
			if err := cache.Put(&plancache.Entry{Key: m.key, Perm: rg.setPerm[i],
				Reordered: !sparse.Permutation(rg.setPerm[i]).IsIdentity()}); err != nil {
				return err
			}
		}
		for _, j := range rg.jobs[:min(r.w.replay, len(rg.jobs))] {
			reqs = append(reqs, j.m)
		}
		timed = r.okLat
	} else {
		for i, res := range r.results {
			if res.ok && len(reqs) < r.w.replay {
				reqs = append(reqs, rg.jobs[i].m)
				served = append(served, res.perm)
				timed = append(timed, res.seconds)
			}
		}
	}
	l, err := replay(ctx, r.w, reqs, served, cache)
	if err != nil {
		return err
	}
	r.replayed = l.requests

	perReq := func(v float64) float64 { return v / math.Max(1, float64(l.requests)) }
	perPlan := func(v float64) float64 { return v / math.Max(1, float64(l.plans)) }
	frac := func(n int) float64 { return float64(n) / math.Max(1, float64(l.plans)) }
	c := r.counters
	hits, misses := family(c, "bootes_cache_hits_total"), family(c, "bootes_cache_misses_total")
	forwards, hedges := family(c, "bootes_fleet_forwards_total"), family(c, "bootes_fleet_hedges_total")

	var fwd, direct []float64
	for _, res := range r.results {
		if !res.ok {
			continue
		}
		if res.forwarded {
			fwd = append(fwd, res.seconds)
		} else {
			direct = append(direct, res.seconds)
		}
	}
	forwardS := 0.0
	if len(fwd) > 0 && len(direct) > 0 {
		forwardS = median(fwd) - median(direct)
	}
	forwardFrac := forwards / math.Max(1, float64(len(r.results)))
	hedgeFrac := 0.0
	if forwards > 0 {
		hedgeFrac = hedges / forwards
	}
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}

	// Per-request layer means; plan stages are summed per request too (a
	// hot request runs none), so their sum is comparable with latency.
	times := []metric{
		{"fleet.keyof_s", perReq(l.route), "s", "router parse + KeyCSR before routing"},
		{"sparse.parse_s", perReq(l.parse), "s", ""},
		{"plancache.key_s", perReq(l.key), "s", ""},
		{"plancache.get_s", perReq(l.get), "s", ""},
		{"core.features_s", perReq(l.features), "s", ""},
		{"sparse.similarity_s", perReq(l.similarity), "s", ""},
		{"eigen.eigensolve_s", perReq(l.eigensolve), "s", ""},
		{"cluster.kmeans_s", perReq(l.kmeans), "s", ""},
		{"sparse.permute_s", perReq(l.permute), "s", ""},
		{"planverify.verify_s", perReq(l.verify), "s", "both verifier passes, timed apart from planning"},
		{"plancache.put_s", perReq(l.put), "s", "atomic write + fsync per miss"},
		{"planserve.encode_s", perReq(l.encode), "s", "JSON response with perm"},
		{"fleet.forward_s", forwardS, "s", fmt.Sprintf("p50 forwarded (n=%d) - p50 owner-direct (n=%d), timed run", len(fwd), len(direct))},
	}
	sum := forwardFrac * forwardS
	for _, m := range times[:len(times)-1] {
		sum += m.value
	}
	r.layerTotal = sum
	unattributed := mean(timed) - sum
	for i := range times {
		share := times[i].value
		if times[i].name == "fleet.forward_s" {
			share *= forwardFrac
		}
		if sum > 0 {
			times[i].note = fmt.Sprintf("%5.1f%% of layer time; %s", 100*share/sum, times[i].note)
		}
	}
	r.perLayer = append(times,
		metric{"unattributed_s", unattributed, "s", fmt.Sprintf("mean timed latency %.6f s of the replayed requests - sum of layer means", mean(timed))},
		metric{"sparse.parse_alloc_bytes", perReq(l.parseAlloc), "bytes", ""},
		metric{"core.alloc_bytes", perPlan(l.alloc), "bytes", "heap allocated per plan"},
		metric{"core.footprint_bytes", perPlan(l.footprint), "bytes", "modelled FootprintBytes per plan"},
		metric{"eigen.matvecs", perPlan(l.matvecs), "count", "per plan"},
		metric{"cluster.kmeans_iters", perPlan(l.kmeansIters), "count", "per plan"},
		metric{"core.reorder_frac", frac(l.reordered), "ratio", fmt.Sprintf("%d of %d plans", l.reordered, l.plans)},
		metric{"core.tier_exact_frac", frac(l.tiers["exact"]), "ratio", ""},
		metric{"core.tier_bitset_frac", frac(l.tiers["bitset"]), "ratio", ""},
		metric{"core.tier_approx_frac", frac(l.tiers["approx"]), "ratio", ""},
		metric{"planverify.reject_frac", frac(l.rejected), "ratio", ""},
		metric{"plancache.hit_ratio", hitRatio, "ratio", fmt.Sprintf("%.0f hits, %.0f misses on the nodes, timed run", hits, misses)},
		metric{"fleet.forward_frac", forwardFrac, "ratio", fmt.Sprintf("%.0f forwards / %d requests", forwards, len(r.results))},
		metric{"fleet.hedge_frac", hedgeFrac, "ratio", fmt.Sprintf("%.0f hedges / %.0f forwards", hedges, forwards)},
		metric{"trace.replay_match_frac", frac(l.matches), "ratio", "replayed plans identical to bootesd's"},
	)
	return nil
}

func (r *report) print(out io.Writer) error {
	nproc := runtime.NumCPU()
	workers := os.Getenv("BOOTES_WORKERS")
	if workers == "" {
		workers = "(unset)"
	}
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%g trace=%d\n", r.w.name, r.o.seed, r.o.seconds, r.o.trace)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d BOOTES_WORKERS=%s go=%s commit=%s clients=%d nodes=%d holdout_seed=%d\n",
		nproc, runtime.GOMAXPROCS(0), workers, runtime.Version(), r.o.commit, r.clients, r.w.nodes, holdoutSeed)
	fmt.Fprintf(out, "why: %s\n", r.w.why)
	fmt.Fprintln(out, "end-to-end:")
	printMetrics(out, r.e2e)
	fmt.Fprintf(out, "  %-26s %-14.6g %-6s %d of %d attempted failed %v\n", "fail_frac", r.tally.failFrac(), "ratio",
		r.tally.failed, r.tally.attempted, r.tally.reasons)
	verdict := "PASS"
	if r.tally.wrong > 0 {
		verdict = fmt.Sprintf("FAIL (%d wrong answers)", r.tally.wrong)
	}
	fmt.Fprintf(out, "correctness: %s — every answer ?perm=1, bijection, not degraded%s\n", verdict,
		map[bool]string{true: ", hit = set-up miss byte for byte, served inside the replica set", false: ", never cached"}[r.w.hot])
	metrics := r.e2e
	if r.o.trace == 1 {
		fmt.Fprintf(out, "per-layer (in-process replay of %d requests, layer sum %.6f s/request; node counters from the timed run):\n",
			r.replayed, r.layerTotal)
		printMetrics(out, r.perLayer)
		metrics = r.perLayer
	}
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.tally.wrong == 0, r.tally.attempted, r.tally.failed, map[string]map[string]any{}}
	for _, m := range metrics {
		summary.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-26s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}
