// Command bootesd is the Bootes plan-serving daemon: a long-running HTTP
// service that fronts the fault-tolerant planning pipeline with a crash-safe
// persistent plan cache, admission control with load shedding, request
// coalescing, transient-degradation retries, a degradation circuit breaker,
// and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/plan[?perm=1][&path=/srv/m.mtx]   plan an uploaded (or local) matrix
//	POST /v1/plan?async=1                      enqueue for async planning (202 + job id)
//	GET  /v1/jobs/{id}                         poll an async job
//	GET  /v1/cache/{key}                       raw cached entry (fleet peer fill)
//	PUT  /v1/cache/{key}                       verified replica ingest (only with -self-heal)
//	GET  /v1/cache/digest                      key -> (size, CRC) cache summary for anti-entropy
//	GET  /v1/peers                             fleet health view (only with -peers)
//	GET  /healthz                              liveness
//	GET  /readyz                               admission (503 while draining)
//	GET  /statsz                               serving + cache + breaker counters
//	GET  /metrics                              Prometheus text exposition
//	GET  /debug/pprof/*                        runtime profiles (only with -pprof)
//
// Quick start:
//
//	bootesd -addr :8080 -cache /var/lib/bootes/plans &
//	curl --data-binary @A.mtx 'http://localhost:8080/v1/plan?perm=1'
//
// Fleet mode (-peers with -self) shards plan serving across several bootesd
// processes on a consistent-hash ring: requests are forwarded to the key's
// owner, local cache misses consult the key's replica set before computing,
// slow owners get one hedged retry, and dead peers are probed and routed
// around. See the README's fleet quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bootes"
	"bootes/internal/antientropy"
	"bootes/internal/fleet"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bootesd: ")

	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "plan cache directory (empty disables persistence)")
	modelPath := flag.String("model", "", "trained decision-tree model (JSON)")
	seed := flag.Int64("seed", 1, "base random seed (retries mix in the attempt number)")
	maxInFlight := flag.Int("max-inflight", 4, "concurrently executing pipelines")
	maxQueue := flag.Int("max-queue", 0, "requests waiting for a slot before shedding (default 2x max-inflight)")
	deadline := flag.Duration("deadline", 60*time.Second, "per-request planning deadline cap")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
	retries := flag.Int("retries", 2, "serve-level retries of transiently degraded plans")
	breakerFails := flag.Int("breaker-failures", 5, "consecutive hard-degraded plans that trip the breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 15*time.Second, "breaker open duration before a half-open probe")
	allowPath := flag.Bool("allow-path", false, "allow ?path= requests reading matrices from this host's filesystem")
	maxUpload := flag.Int64("max-upload-bytes", 256<<20, "maximum matrix upload size in bytes; oversized uploads get 413 before buffering")
	flag.Int64Var(maxUpload, "max-upload", 256<<20, "alias of -max-upload-bytes")
	uploadTimeout := flag.Duration("upload-timeout", 30*time.Second, "maximum time for a request to deliver its matrix body (negative disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "maximum time to read a request's headers")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "maximum time to read an entire request")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle timeout")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on /debug/pprof/ (CPU, heap, goroutine, ...)")
	similarity := flag.String("similarity", "auto", "similarity tier: auto, exact, approx, or implicit")
	autoK := flag.Bool("auto-k", false, "pick the cluster count by eigengap on the refined similarity (falls back to the fixed-k sweep when ambiguous)")
	queueDir := flag.String("queue-dir", "", "durable async job queue directory (empty disables ?async=1; requires -cache)")
	queueWorkers := flag.Int("queue-workers", 0, "async queue worker pool size (default max-inflight)")
	queueMax := flag.Int("queue-max", 1024, "async jobs queued before submissions shed")
	queueMaxTenant := flag.Int("queue-max-tenant", 0, "async jobs one tenant may have queued (default queue-max/4)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant request quota in requests/second (0 disables)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant quota burst capacity (default ceil(tenant-rate))")
	peersFlag := flag.String("peers", "", "comma-separated fleet member URLs, including this node's (enables fleet routing)")
	selfURL := flag.String("self", "", "this node's advertised URL, as it appears in -peers")
	replicas := flag.Int("replicas", 2, "fleet replica-set size per plan key")
	vnodes := flag.Int("vnodes", 0, "consistent-hash virtual nodes per peer (default 128)")
	hedgeAfter := flag.Duration("hedge-after", 250*time.Millisecond, "fire one hedged duplicate at the next replica after this wait (negative disables)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "fleet peer health-probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe (and per-cache-fill) timeout")
	downAfter := flag.Int("down-after", 2, "consecutive probe/forward failures before a peer is routed around")
	selfHeal := flag.Bool("self-heal", false, "enable anti-entropy self-healing: plan replication, hinted handoff, digest repair, warm-up, scrubbing (requires -peers and -cache)")
	repairInterval := flag.Duration("repair-interval", 30*time.Second, "anti-entropy digest-exchange repair period")
	scrubInterval := flag.Duration("scrub-interval", 5*time.Second, "background scrub pacing, one cache entry per tick")
	warmupDeadline := flag.Duration("warmup-deadline", 5*time.Second, "bound on the pre-ready warm-up that streams owned keys from replicas")
	flag.Parse()

	simMode, err := bootes.ParseSimilarityMode(*similarity)
	if err != nil {
		log.Fatal(err)
	}

	var model *bootes.Model
	if *modelPath != "" {
		data, err := os.ReadFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		if model, err = bootes.LoadModel(data); err != nil {
			log.Fatalf("%s: %v", *modelPath, err)
		}
	}

	var cache *plancache.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = plancache.Open(*cacheDir); err != nil {
			log.Fatalf("opening plan cache: %v", err)
		}
		st := cache.Stats()
		log.Printf("plan cache %s: %d entries loaded, %d quarantined", *cacheDir, st.Entries, st.Quarantined)
	}

	// The async queue shares the sync path's pipeline and plan cache, and its
	// worker pool defaults to the admission width: background planning can
	// never out-parallelize what the operator allowed for foreground work.
	var queue *planqueue.Queue
	if *queueDir != "" {
		if cache == nil {
			log.Fatal("-queue-dir requires -cache: async jobs complete into the plan cache")
		}
		workers := *queueWorkers
		if workers <= 0 {
			workers = *maxInFlight
		}
		queue, err = planqueue.Open(planqueue.Config{
			Dir:                *queueDir,
			Run:                planqueue.RunFunc(planFunc(model, *seed, simMode, *autoK)),
			Cache:              cache,
			Workers:            workers,
			MaxQueued:          *queueMax,
			MaxQueuedPerTenant: *queueMaxTenant,
			Metrics:            obs.Default(),
			Seed:               *seed,
			Logf:               log.Printf,
		})
		if err != nil {
			log.Fatalf("opening async queue: %v", err)
		}
		qs := queue.Stats()
		log.Printf("async queue %s: %d jobs recovered to queued, %d torn journal tails truncated",
			*queueDir, qs.Recovered, qs.TornTails)
		queue.Start()
	}

	// Fleet mode: the router owns the ring, the peer health view, and the
	// peer cache-fill hook. It wraps the serving handler below.
	var router *fleet.Router
	if *peersFlag != "" {
		if *selfURL == "" {
			log.Fatal("-peers requires -self: this node must know its own URL on the ring")
		}
		router, err = fleet.New(fleet.Config{
			Self:          *selfURL,
			Peers:         strings.Split(*peersFlag, ","),
			Replicas:      *replicas,
			Vnodes:        *vnodes,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			DownAfter:     *downAfter,
			MaxBodyBytes:  *maxUpload,
			Metrics:       obs.Default(),
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Self-healing rides on fleet mode: the healer shares the router's ring
	// and health view, replicates fresh plans across each key's replica set,
	// parks hints for down replicas, and repairs divergence in the background.
	var healer *antientropy.Healer
	if *selfHeal {
		if router == nil {
			log.Fatal("-self-heal requires -peers: anti-entropy repairs replicas on the fleet ring")
		}
		if cache == nil {
			log.Fatal("-self-heal requires -cache: there is nothing to repair without a persistent plan cache")
		}
		healer, err = antientropy.New(antientropy.Config{
			Cache:          cache,
			Ring:           router.Ring,
			Self:           *selfURL,
			Replicas:       *replicas,
			PeerUp:         router.PeerUp,
			RepairInterval: *repairInterval,
			ScrubInterval:  *scrubInterval,
			Metrics:        obs.Default(),
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		router.SetOnPeerUp(healer.NotifyPeerUp)
	}

	cfg := planserve.Config{
		Plan:            planFunc(model, *seed, simMode, *autoK),
		Cache:           cache,
		Queue:           queue,
		Tenants:         planserve.TenantConfig{Rate: *tenantRate, Burst: *tenantBurst},
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *deadline,
		MaxRetries:      *retries,
		Breaker: planserve.BreakerConfig{
			FailureThreshold: *breakerFails,
			Cooldown:         *breakerCooldown,
		},
		MaxUploadBytes:    *maxUpload,
		UploadReadTimeout: *uploadTimeout,
		AllowLocalPaths:   *allowPath,
		AutoK:             *autoK,
		Seed:              *seed,
		Metrics:           obs.Default(),
	}
	if router != nil {
		cfg.PeerFill = router.Fill
	}
	if healer != nil {
		cfg.Replicate = healer.Replicate
		cfg.Heal = healer
	}
	srv, err := planserve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The daemon owns the process, so its serving metrics live on the
	// process-wide registry: /metrics then carries serving, pipeline, cache,
	// and verifier families in one exposition. Profiling handlers are
	// registered explicitly (never via the http.DefaultServeMux side effect)
	// and only when asked — pprof on a public address is an information leak.
	handler := srv.Handler()
	if router != nil {
		handler = router.Handler(handler)
		router.Start()
		log.Printf("fleet: self=%s peers=%d replicas=%d hedge-after=%s", *selfURL, len(router.Ring().Nodes()), *replicas, *hedgeAfter)
	}
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		log.Printf("pprof enabled on %s/debug/pprof/", *addr)
	}

	// Server-side timeouts close the slowloris hole: a client that trickles
	// headers or holds idle keep-alives cannot pin a connection forever. The
	// body-read budget is per-request (UploadReadTimeout above), so a legal
	// large upload is bounded by its own clock, not the header one.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Warming is flagged before the listener serves its first request, so
	// there is no window where /readyz answers 200 with the owned ranges
	// still unfetched. The warm-up itself runs after the listener is up: the
	// cache data plane (digests, entry reads, pushes) serves throughout.
	if healer != nil {
		srv.SetWarming(true)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (inflight=%d queue auto, deadline=%s, cache=%q)",
		*addr, *maxInFlight, *deadline, *cacheDir)
	if healer != nil {
		wctx, wcancel := context.WithTimeout(context.Background(), *warmupDeadline)
		if n := healer.Warmup(wctx); n > 0 {
			log.Printf("self-heal: warmed %d owned entries from replicas before ready", n)
		}
		wcancel()
		srv.SetWarming(false)
		healer.Start()
		log.Printf("self-heal: repair every %s, scrub every %s, %d hints pending",
			*repairInterval, *scrubInterval, healer.HintsPending())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("received %s: draining (deadline %s)", sig, *drain)
	case err := <-errc:
		log.Fatalf("listener failed: %v", err)
	}

	// Graceful shutdown: stop admitting (readyz flips to 503, new plan
	// requests get 503), drain in-flight pipelines — whose cache writes are
	// synchronous, so a clean drain implies a flushed cache — then close the
	// listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// The router stops probing first: a draining node must not keep marking
	// peers up/down from a half-torn-down stack (forwarding keeps working on
	// the last health view while in-flight requests drain).
	if router != nil {
		router.Stop()
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	// Drain push after the plan pipelines settle: entries only this node
	// holds are handed to the other replicas while the listener still
	// answers their verification reads.
	if healer != nil {
		healer.DrainPush(ctx)
		healer.Stop()
	}
	// The queue drains after the HTTP layer: no new submissions can arrive,
	// workers finish their current job, and the shutdown checkpoint compacts
	// the journal so the next start replays a minimal file. Jobs still queued
	// stay journaled and resume on restart.
	if queue != nil {
		if err := queue.Stop(ctx); err != nil {
			log.Printf("queue drain incomplete: %v", err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("stopped")
}

// planFunc adapts the core pipeline to the serving layer. Each retry attempt
// mixes the attempt number into the seed so a transient eigensolver failure
// is not deterministically replayed.
func planFunc(model *bootes.Model, seed int64, sim bootes.SimilarityMode, autoK bool) planserve.PlanFunc {
	return func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		opts := &bootes.Options{Seed: seed + int64(attempt)*0x9E3779B9, Model: model, Similarity: sim, AutoK: autoK}
		if dl, ok := ctx.Deadline(); ok {
			opts.Budget.MaxWallClock = time.Until(dl)
		}
		plan, err := bootes.PlanContext(ctx, m, opts)
		if err != nil {
			return nil, err
		}
		return &reorder.Result{
			Perm:           plan.Perm,
			Reordered:      plan.Reordered,
			Degraded:       plan.Degraded,
			DegradedReason: plan.DegradedReason,
			SimilarityMode: plan.SimilarityMode,
			AutoK:          plan.AutoK,
			PreprocessTime: time.Duration(plan.PreprocessSeconds * float64(time.Second)),
			FootprintBytes: plan.FootprintBytes,
			Extra:          map[string]float64{"k": float64(plan.K)},
		}, nil
	}
}
