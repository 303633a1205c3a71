// Command loadgen drives a bootesd fleet with synthetic planning traffic and
// asserts latency and shed-rate SLOs against the fleet's own /metrics.
//
// Two ways to point it at a fleet:
//
//	loadgen -peers http://10.0.0.1:8080,http://10.0.0.2:8080   # existing fleet
//	loadgen -spawn 3                                           # in-process fleet
//
// The generator builds -matrices distinct synthetic workloads, ring-orders
// the peer list per matrix (same hash as the servers, so the first attempt
// lands on the owner), and drives -qps requests/s across -workers goroutines
// for -duration. At the end it scrapes every peer's /metrics and computes:
//
//   - p99 serve latency from the merged bootes_serve_latency_seconds{outcome="ok"}
//     histogram (conservative: the bucket upper bound that covers the 99th
//     percentile), asserted against -p99
//   - shed rate from bootes_serve_shed_total vs bootes_serve_served_total,
//     asserted against -max-shed
//
// Exit status: 0 all SLOs met, 1 an SLO was breached, 2 setup/usage error.
// The SLOs are read from the servers, not the client, so a soak run fails on
// what operators would page on — not on client-side scheduling noise.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	bootes "bootes"
	"bootes/internal/fleet"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/ring"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		peers    = flag.String("peers", "", "comma-separated bootesd base URLs to load")
		spawn    = flag.Int("spawn", 0, "spawn an in-process fleet of N nodes instead of -peers")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		qps      = flag.Float64("qps", 50, "target aggregate requests per second")
		workers  = flag.Int("workers", 8, "concurrent client goroutines")
		matrices = flag.Int("matrices", 16, "distinct synthetic matrices in the working set")
		rows     = flag.Int("rows", 48, "rows per synthetic matrix")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		replicas = flag.Int("replicas", 2, "fleet replica count (for -misroute accounting)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		sloP99   = flag.Duration("p99", 2*time.Second, "p99 serve-latency SLO (0 disables)")
		maxShed  = flag.Float64("max-shed", 0.05, "maximum tolerated shed rate (fraction; negative disables)")
		misroute = flag.Bool("misroute", false, "fail if any response is served outside the key's replica set")
		killOne  = flag.Bool("kill-one", false, "churn mode (requires -spawn): kill and restart a random node mid-soak, assert total computes <= matrices + crashes")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var computes atomic.Int64
	urls, cluster, cleanup, err := resolveFleet(*peers, *spawn, *replicas, *seed, *killOne, &computes)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	defer cleanup()
	if *killOne && cluster == nil {
		log.Print("-kill-one requires -spawn: churn needs in-process node handles")
		os.Exit(2)
	}

	work, err := buildWorkingSet(urls, *matrices, *rows, *seed, *replicas)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	client := &http.Client{Timeout: *timeout}
	defer client.CloseIdleConnections()
	churnDone := make(chan int, 1)
	if *killOne {
		go churnOne(cluster, *duration, *seed, churnDone)
	}
	agg := drive(ctx, client, work, *workers, *qps, *duration)
	crashes := 0
	if *killOne {
		crashes = <-churnDone // restart completed; safe to scrape every node
	}

	scraped, scrapeErr := scrapeFleet(client, urls)

	breached := report(os.Stdout, agg, scraped, scrapeErr, *sloP99, *maxShed, *misroute)
	if *killOne {
		// The self-healing bar: a crash is absorbed by replicas and the
		// restarted node's pulls, so at most one extra pipeline run per
		// crash is tolerated fleet-wide (a write racing the kill can lose
		// its only copy).
		total := computes.Load()
		budget := int64(*matrices + crashes)
		fmt.Printf("churn      %d crash(es), %d pipeline computes (budget %d = matrices + crashes)\n",
			crashes, total, budget)
		if total > budget {
			fmt.Printf("FAIL       recompute budget exceeded: the fleet re-planned work a replica already held\n")
			breached = true
		}
	}
	if breached {
		os.Exit(1)
	}
}

// churnOne kills one random node a third of the way into the soak and
// restarts it (with warm-up) another third later, reporting the crash count.
func churnOne(cluster *fleet.Cluster, duration time.Duration, seed int64, done chan<- int) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b696c6c))
	time.Sleep(duration / 3)
	nd := cluster.Nodes[rng.Intn(len(cluster.Nodes))]
	log.Printf("churn: killing %s", nd.URL)
	nd.Kill()
	time.Sleep(duration / 3)
	if err := nd.Restart(); err != nil {
		log.Printf("churn: restarting %s: %v", nd.URL, err)
	} else {
		log.Printf("churn: restarted %s (warm-up complete)", nd.URL)
	}
	done <- 1
}

// resolveFleet returns the base URLs to load, spawning an in-process fleet
// when asked (non-nil cluster). The cleanup func tears the spawned fleet
// down. Spawned pipelines report into computes so churn mode can assert the
// fleet-wide recompute budget.
func resolveFleet(peers string, spawn, replicas int, seed int64, selfHeal bool, computes *atomic.Int64) ([]string, *fleet.Cluster, func(), error) {
	if (peers == "") == (spawn == 0) {
		return nil, nil, nil, fmt.Errorf("exactly one of -peers or -spawn is required")
	}
	if spawn > 0 {
		dir, err := os.MkdirTemp("", "loadgen-fleet-")
		if err != nil {
			return nil, nil, nil, err
		}
		// The production pipeline (no learned model) and bootesd's default
		// -retries, matching what bootesd runs, so a spawned soak exercises
		// real planning latency.
		plan := planserve.PipelinePlan(bootes.Options{Seed: seed})
		cfg := fleet.NodeConfig{
			Serve: planserve.Config{
				Plan: func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
					computes.Add(1)
					return plan(ctx, m, attempt)
				},
				MaxRetries: 2,
			},
			CacheDir: dir,
			Fleet:    fleet.Config{Replicas: replicas},
		}
		if selfHeal {
			// Churn mode needs the outage absorbed within the soak window:
			// fast down-detection, anti-entropy replication and repair, and
			// a bounded warm-up on the restart.
			cfg.SelfHeal = true
			cfg.Fleet.ProbeInterval = 200 * time.Millisecond
			cfg.Fleet.DownAfter = 2
			cfg.Heal.RepairInterval = 500 * time.Millisecond
			cfg.WarmupDeadline = 3 * time.Second
		}
		c, err := fleet.LaunchCluster(spawn, cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, fmt.Errorf("spawning fleet: %w", err)
		}
		log.Printf("spawned %d-node fleet (self-heal=%v): %s", spawn, selfHeal, strings.Join(c.URLs(), " "))
		cleanup := func() {
			c.Close()
			os.RemoveAll(dir)
		}
		return c.URLs(), c, cleanup, nil
	}
	var urls []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, strings.TrimRight(p, "/"))
		}
	}
	if len(urls) == 0 {
		return nil, nil, nil, fmt.Errorf("-peers is empty")
	}
	return urls, nil, func() {}, nil
}

// workItem is one matrix of the working set: its serialized body, cache key,
// and the fleet's preference order for it (owner first).
type workItem struct {
	body     []byte
	key      string
	bases    []string        // all peers, ring-ordered for this key
	replicaN map[string]bool // the first `replicas` bases: valid servers
}

func buildWorkingSet(urls []string, matrices, rows int, seed int64, replicas int) ([]workItem, error) {
	r, err := ring.New(urls, 0)
	if err != nil {
		return nil, fmt.Errorf("building ring: %w", err)
	}
	items := make([]workItem, 0, matrices)
	for i := 0; i < matrices; i++ {
		m := workloads.ScrambledBlock(workloads.Params{
			Rows: rows, Cols: rows, Density: 0.08, Seed: seed + int64(i), Groups: 4,
		})
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
			return nil, fmt.Errorf("serializing matrix %d: %w", i, err)
		}
		key := plancache.KeyCSR(m)
		bases := r.Replicas(key, len(urls))
		n := replicas
		if n > len(bases) {
			n = len(bases)
		}
		valid := make(map[string]bool, n)
		for _, b := range bases[:n] {
			valid[b] = true
		}
		items = append(items, workItem{body: buf.Bytes(), key: key, bases: bases, replicaN: valid})
	}
	return items, nil
}

// aggregate is the client-side view of the run.
type aggregate struct {
	sent      atomic.Int64
	byStatus  sync.Map // int -> *atomic.Int64
	errors    atomic.Int64
	misroutes atomic.Int64
	elapsed   time.Duration

	mu        sync.Mutex
	latencies []time.Duration
}

func (a *aggregate) note(status int) {
	v, _ := a.byStatus.LoadOrStore(status, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

func (a *aggregate) observe(d time.Duration) {
	a.mu.Lock()
	a.latencies = append(a.latencies, d)
	a.mu.Unlock()
}

// drive paces requests at qps across workers until duration elapses or ctx
// is cancelled. Each request goes to its matrix's ring-preferred peer and
// fails over to the next peer on transport errors or 5xx.
func drive(ctx context.Context, client *http.Client, work []workItem, workers int, qps float64, duration time.Duration) *aggregate {
	agg := &aggregate{}
	if qps <= 0 {
		qps = 1
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	loadCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-loadCtx.Done():
				return
			case <-t.C:
				select {
				case ticks <- struct{}{}:
				case <-loadCtx.Done():
					return
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 0x5eed))
			for range ticks {
				item := work[rng.Intn(len(work))]
				fire(loadCtx, client, item, agg)
			}
		}(w)
	}
	wg.Wait()
	agg.elapsed = time.Since(start)
	return agg
}

func fire(ctx context.Context, client *http.Client, item workItem, agg *aggregate) {
	agg.sent.Add(1)
	begin := time.Now()
	for i, base := range item.bases {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plan", bytes.NewReader(item.body))
		if err != nil {
			agg.errors.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				agg.errors.Add(1)
				return
			}
			if i == len(item.bases)-1 {
				agg.errors.Add(1)
				return
			}
			continue // transport failure: fail over to the next peer
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 && i < len(item.bases)-1 {
			continue
		}
		agg.note(resp.StatusCode)
		if resp.StatusCode == http.StatusOK {
			agg.observe(time.Since(begin))
			servedBy := resp.Header.Get(fleet.ServedByHeader)
			if servedBy == "" {
				servedBy = base // answered locally by the peer we hit
			}
			if !item.replicaN[servedBy] {
				agg.misroutes.Add(1)
			}
		}
		return
	}
}

// fleetMetrics is what the SLO gate needs from the scraped expositions:
// the merged ok-latency histogram and the served/shed counters.
type fleetMetrics struct {
	buckets map[float64]uint64 // le upper bound -> cumulative count, merged
	okCount uint64
	served  int64
	shed    int64
}

func scrapeFleet(client *http.Client, urls []string) (*fleetMetrics, error) {
	fm := &fleetMetrics{buckets: map[float64]uint64{}}
	for _, u := range urls {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		err = parseExposition(resp.Body, fm)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s/metrics: %w", u, err)
		}
	}
	return fm, nil
}

// parseExposition folds one node's Prometheus text format into fm. Only the
// three families the SLO gate uses are read; everything else is skipped.
func parseExposition(r io.Reader, fm *fleetMetrics) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `bootes_serve_latency_seconds_bucket{outcome="ok",le="`):
			rest := line[len(`bootes_serve_latency_seconds_bucket{outcome="ok",le="`):]
			end := strings.Index(rest, `"`)
			if end < 0 {
				continue
			}
			leStr, valStr := rest[:end], strings.TrimSpace(rest[end+2:])
			le := math.Inf(1)
			if leStr != "+Inf" {
				f, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					continue
				}
				le = f
			}
			v, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				continue
			}
			fm.buckets[le] += v
		case strings.HasPrefix(line, `bootes_serve_latency_seconds_count{outcome="ok"}`):
			v, err := strconv.ParseUint(strings.TrimSpace(line[len(`bootes_serve_latency_seconds_count{outcome="ok"}`):]), 10, 64)
			if err == nil {
				fm.okCount += v
			}
		case strings.HasPrefix(line, "bootes_serve_served_total "):
			v, err := strconv.ParseInt(strings.TrimSpace(line[len("bootes_serve_served_total "):]), 10, 64)
			if err == nil {
				fm.served += v
			}
		case strings.HasPrefix(line, "bootes_serve_shed_total "):
			v, err := strconv.ParseInt(strings.TrimSpace(line[len("bootes_serve_shed_total "):]), 10, 64)
			if err == nil {
				fm.shed += v
			}
		}
	}
	return sc.Err()
}

// quantileUpperBound returns the histogram bucket upper bound covering
// quantile q — a conservative (pessimistic) percentile estimate.
func (fm *fleetMetrics) quantileUpperBound(q float64) (float64, bool) {
	if fm.okCount == 0 || len(fm.buckets) == 0 {
		return 0, false
	}
	bounds := make([]float64, 0, len(fm.buckets))
	for le := range fm.buckets {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	rank := uint64(math.Ceil(q * float64(fm.okCount)))
	for _, le := range bounds {
		if fm.buckets[le] >= rank {
			return le, true
		}
	}
	return math.Inf(1), true
}

func (fm *fleetMetrics) shedRate() float64 {
	total := fm.served + fm.shed
	if total == 0 {
		return 0
	}
	return float64(fm.shed) / float64(total)
}

// report prints the run summary and evaluates the SLOs. It returns true if
// any SLO was breached.
func report(w io.Writer, agg *aggregate, fm *fleetMetrics, scrapeErr error, sloP99 time.Duration, maxShed float64, misroute bool) bool {
	sent := agg.sent.Load()
	qps := 0.0
	if agg.elapsed > 0 {
		qps = float64(sent) / agg.elapsed.Seconds()
	}
	fmt.Fprintf(w, "sent %d requests in %s (%.1f qps), %d transport errors\n",
		sent, agg.elapsed.Round(time.Millisecond), qps, agg.errors.Load())

	var statuses []int
	agg.byStatus.Range(func(k, _ any) bool { statuses = append(statuses, k.(int)); return true })
	sort.Ints(statuses)
	for _, s := range statuses {
		v, _ := agg.byStatus.Load(s)
		fmt.Fprintf(w, "  HTTP %d: %d\n", s, v.(*atomic.Int64).Load())
	}
	if n := len(agg.latencies); n > 0 {
		sort.Slice(agg.latencies, func(i, j int) bool { return agg.latencies[i] < agg.latencies[j] })
		idx := func(q float64) time.Duration { return agg.latencies[min(n-1, int(q*float64(n)))] }
		fmt.Fprintf(w, "client-side latency: p50=%s p99=%s max=%s\n",
			idx(0.50).Round(time.Microsecond), idx(0.99).Round(time.Microsecond), agg.latencies[n-1].Round(time.Microsecond))
	}

	breached := false
	if scrapeErr != nil {
		fmt.Fprintf(w, "SLO FAIL: could not scrape fleet metrics: %v\n", scrapeErr)
		return true
	}

	if sloP99 > 0 {
		if p99, ok := fm.quantileUpperBound(0.99); !ok {
			fmt.Fprintf(w, "SLO FAIL: no ok-latency samples in fleet histograms\n")
			breached = true
		} else if p99 > sloP99.Seconds() {
			fmt.Fprintf(w, "SLO FAIL: fleet p99 latency ≤%gs exceeds %s\n", p99, sloP99)
			breached = true
		} else {
			fmt.Fprintf(w, "SLO ok: fleet p99 latency ≤%gs (limit %s)\n", p99, sloP99)
		}
	}
	if maxShed >= 0 {
		rate := fm.shedRate()
		if rate > maxShed {
			fmt.Fprintf(w, "SLO FAIL: shed rate %.2f%% exceeds %.2f%% (%d shed / %d served)\n",
				rate*100, maxShed*100, fm.shed, fm.served)
			breached = true
		} else {
			fmt.Fprintf(w, "SLO ok: shed rate %.2f%% (limit %.2f%%)\n", rate*100, maxShed*100)
		}
	}
	if misroute {
		if mr := agg.misroutes.Load(); mr > 0 {
			fmt.Fprintf(w, "SLO FAIL: %d responses served outside their replica set\n", mr)
			breached = true
		} else {
			fmt.Fprintf(w, "SLO ok: all responses served within their replica sets\n")
		}
	}
	return breached
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
