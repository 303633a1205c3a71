// Command bootesd is the Bootes plan-serving daemon: a long-running HTTP
// service that fronts the fault-tolerant planning pipeline with a crash-safe
// persistent plan cache, admission control with load shedding, request
// coalescing, immediate reseeded re-planning of transiently degraded plans
// (-retries times), a degradation circuit breaker, and graceful drain on
// SIGTERM. Each plan request runs under a deadline, its X-Deadline header
// capped by -deadline: a plan still running when it passes is answered with
// the identity plan, marked degraded, rather than an error.
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
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bootes"
	"bootes/internal/antientropy"
	"bootes/internal/fleet"
	"bootes/internal/obs"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
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
	retries := flag.Int("retries", 2, "serve-level retries of transiently degraded plans, each at once on a fresh seed (0 disables)")
	breakerFails := flag.Int("breaker-failures", 5, "consecutive hard-degraded plans that trip the breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 15*time.Second, "breaker open duration before a half-open probe")
	allowPath := flag.Bool("allow-path", false, "allow ?path= requests reading matrices from this host's filesystem")
	maxUpload := flag.Int64("max-upload-bytes", 256<<20, "maximum matrix upload size in bytes; oversized uploads get 413 before buffering")
	uploadTimeout := flag.Duration("upload-timeout", 30*time.Second, "maximum time for a request to deliver its matrix body (negative disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "maximum time to read a request's headers")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "maximum time to read an entire request")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle timeout")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles on /debug/pprof/ (CPU, heap, goroutine, ...)")
	queueDir := flag.String("queue-dir", "", "durable async job queue directory (empty disables ?async=1; requires -cache)")
	queueWorkers := flag.Int("queue-workers", 0, "async queue worker pool size (default max-inflight)")
	queueMax := flag.Int("queue-max", 1024, "async jobs queued before submissions shed")
	queueMaxTenant := flag.Int("queue-max-tenant", 0, "async jobs one tenant may have queued (default queue-max/4)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant request quota in requests/second (0 disables)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant quota burst capacity (default ceil(tenant-rate))")
	peersFlag := flag.String("peers", "", "comma-separated fleet member URLs, including this node's (enables fleet routing)")
	selfURL := flag.String("self", "", "this node's advertised URL, as it appears in -peers")
	replicas := flag.Int("replicas", 2, "fleet replica-set size per plan key")
	hedgeAfter := flag.Duration("hedge-after", 250*time.Millisecond, "fire one hedged duplicate at the next replica after this wait (negative disables)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "fleet peer health-probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe (and per-cache-fill) timeout")
	downAfter := flag.Int("down-after", 2, "consecutive probe/forward failures before a peer is routed around")
	selfHeal := flag.Bool("self-heal", false, "enable anti-entropy self-healing: plan replication, digest repair, warm-up, scrubbing, and the PUT /v1/cache/{key} replica ingest (requires -peers and -cache)")
	repairInterval := flag.Duration("repair-interval", 30*time.Second, "anti-entropy digest-exchange repair period")
	scrubInterval := flag.Duration("scrub-interval", 5*time.Second, "background scrub pacing, one cache entry per tick")
	warmupDeadline := flag.Duration("warmup-deadline", 5*time.Second, "bound on the pre-ready warm-up that streams owned keys from replicas")
	flag.Parse()

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

	var peers []string
	if *peersFlag != "" {
		if *selfURL == "" {
			log.Fatal("-peers requires -self: this node must know its own URL on the ring")
		}
		peers = strings.Split(*peersFlag, ",")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listener failed: %v", err)
	}
	// The daemon owns the process, so its metrics live on the process-wide
	// registry: /metrics then carries serving, pipeline, cache, and verifier
	// families in one exposition.
	node, err := fleet.StartNode(ln, fleet.NodeConfig{
		Serve: planserve.Config{
			Plan:            planserve.PipelinePlan(bootes.Options{Model: model, Seed: *seed}),
			Tenants:         planserve.TenantConfig{Rate: *tenantRate, Burst: *tenantBurst},
			MaxInFlight:     *maxInFlight,
			MaxQueue:        *maxQueue,
			DefaultDeadline: *deadline,
			MaxRetries:      *retries,
			Breaker: planserve.BreakerConfig{
				FailureThreshold: *breakerFails,
				Cooldown:         *breakerCooldown,
			},
			MaxUploadBytes:  *maxUpload,
			AllowLocalPaths: *allowPath,
		},
		CacheDir: *cacheDir,
		Queue: planqueue.Config{
			Dir:                *queueDir,
			Workers:            *queueWorkers,
			MaxQueued:          *queueMax,
			MaxQueuedPerTenant: *queueMaxTenant,
			Seed:               *seed,
		},
		Fleet: fleet.Config{
			Self:          *selfURL,
			Peers:         peers,
			Replicas:      *replicas,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			DownAfter:     *downAfter,
		},
		SelfHeal:          *selfHeal,
		Heal:              antientropy.Config{RepairInterval: *repairInterval, ScrubInterval: *scrubInterval},
		WarmupDeadline:    *warmupDeadline,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		UploadReadTimeout: *uploadTimeout,
		Pprof:             *pprofOn,
		Metrics:           obs.Default(),
		Logf:              log.Printf,
	}, true)
	if err != nil {
		log.Fatal(err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("received %s: draining (deadline %s)", sig, *drain)
	case err := <-node.ServeErr():
		log.Fatalf("listener failed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = node.Close(ctx) // logs each incomplete step
	log.Printf("stopped")
}
