// Node assembly: StartNode builds one bootesd node (plan cache, async queue,
// fleet router, anti-entropy healer, planserve, HTTP server) on a listener
// and starts serving; Node.Close drains it. cmd/bootesd runs exactly one
// node through it. LaunchCluster runs N of them on real loopback listeners,
// with kill/restart, as the substrate for the fleet chaos scenarios,
// cmd/loadgen -spawn, and the fleet tests. Real TCP rather than
// httptest.Server internals so forwarding, hedging, and cache fills exercise
// the same client paths production does.

package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sync"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
)

// NodeConfig assembles one node. Each component's config carries its own
// settings; StartNode fills in the cross-wiring (the shared cache, queue,
// registry and logger, the router's hooks into planserve and the healer).
type NodeConfig struct {
	// Serve configures planserve (Plan is required). StartNode sets Cache,
	// Queue, Route, PeerFill, Replicate, Heal, Metrics and Logf.
	Serve planserve.Config
	// CacheDir is the plan cache directory; empty disables persistence.
	CacheDir string
	// Queue configures the durable async queue behind ?async=1; an empty Dir
	// disables it. It requires CacheDir: async jobs complete into the plan
	// cache. StartNode sets Metrics and Logf and starts the queue with the
	// server's RunJob; Workers defaults to the MaxInFlight planserve serves
	// with, so background planning never out-parallelizes what admission
	// allows foreground work.
	Queue planqueue.Config
	// Fleet configures the router; empty Peers runs a standalone node.
	// StartNode sets Metrics and Logf, hands the router's Route and Fill to
	// planserve, and serves its GET /v1/peers view. planserve reads every
	// plan body, under Serve.MaxUploadBytes, whether the router forwards the
	// request or not.
	Fleet Config
	// SelfHeal runs the anti-entropy healer: replication of fresh plans,
	// digest repair, warm-up on start, drain push on Close, and scrubbing,
	// and opens the replica ingest (PUT /v1/cache/{key}). It requires
	// Fleet.Peers and CacheDir.
	SelfHeal bool
	// Heal paces the healer. StartNode sets Cache, Ring, Self, Replicas,
	// PeerUp, Metrics and Logf from the node.
	Heal antientropy.Config
	// WarmupDeadline bounds the pre-ready warm-up (default 5s).
	WarmupDeadline time.Duration
	// ReadHeaderTimeout, ReadTimeout and IdleTimeout are the HTTP server's
	// (zero means none).
	ReadHeaderTimeout, ReadTimeout, IdleTimeout time.Duration
	// UploadReadTimeout bounds how long a POST /v1/plan may take to deliver
	// its matrix body (default 30s; negative disables).
	UploadReadTimeout time.Duration
	// Pprof serves runtime profiles under /debug/pprof/.
	Pprof bool
	// Metrics is the registry every component registers on; nil gives each
	// start a private registry.
	Metrics *obs.Registry
	// Logf sinks every component's diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is one running bootesd node.
type Node struct {
	// URL is the node's listen address as a URL (http://host:port), fixed
	// across restarts.
	URL string

	cfg NodeConfig

	mu       sync.Mutex
	srv      *planserve.Server
	router   *Router
	cache    *plancache.Cache
	queue    *planqueue.Queue
	healer   *antientropy.Healer
	http     *http.Server
	serveErr chan error
	alive    bool
}

// StartNode assembles a node on ln and starts serving it; on error ln is
// closed. warm runs the self-healing warm-up before the node reports ready;
// a fleet's first launch skips it, because every peer is empty and some are
// not serving yet.
func StartNode(ln net.Listener, cfg NodeConfig, warm bool) (*Node, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	nd := &Node{URL: "http://" + ln.Addr().String(), cfg: cfg}
	if err := nd.start(ln, warm); err != nil {
		return nil, err
	}
	return nd, nil
}

func (nd *Node) start(ln net.Listener, warm bool) (err error) {
	defer func() {
		if err != nil {
			ln.Close()
		}
	}()
	cfg := nd.cfg
	switch {
	case cfg.Queue.Dir != "" && cfg.CacheDir == "":
		return errors.New("fleet: an async queue requires a plan cache: async jobs complete into the plan cache")
	case cfg.SelfHeal && len(cfg.Fleet.Peers) == 0:
		return errors.New("fleet: self-healing requires fleet peers: anti-entropy repairs replicas on the fleet ring")
	case cfg.SelfHeal && cfg.CacheDir == "":
		return errors.New("fleet: self-healing requires a plan cache: there is nothing to repair without one")
	}
	reg, logf := cfg.Metrics, cfg.Logf
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sc := cfg.Serve.WithDefaults()

	var cache *plancache.Cache
	if cfg.CacheDir != "" {
		if cache, err = plancache.Open(cfg.CacheDir); err != nil {
			return fmt.Errorf("opening plan cache: %w", err)
		}
		st := cache.Stats()
		logf("plan cache %s: %d entries loaded, %d quarantined", cfg.CacheDir, st.Entries, st.Quarantined)
	}

	var queue *planqueue.Queue
	if cfg.Queue.Dir != "" {
		qc := cfg.Queue
		qc.Metrics, qc.Logf = reg, logf
		if qc.Workers <= 0 {
			qc.Workers = sc.MaxInFlight
		}
		if queue, err = planqueue.Open(qc); err != nil {
			return fmt.Errorf("opening async queue: %w", err)
		}
		defer func() {
			if err != nil {
				queue.Kill()
			}
		}()
		qs := queue.Stats()
		logf("async queue %s: %d jobs recovered to queued, %d torn journal tails truncated",
			qc.Dir, qs.Recovered, qs.TornTails)
	}

	var router *Router
	if len(cfg.Fleet.Peers) > 0 {
		fc := cfg.Fleet
		fc.Metrics, fc.Logf = reg, logf
		if router, err = New(fc); err != nil {
			return err
		}
	}

	// Self-healing rides on fleet mode: the healer shares the router's ring
	// and health view, replicates fresh plans to each key's up replicas, and
	// in the background pulls what this node missed while it or a peer was
	// down, and repairs divergence.
	var healer *antientropy.Healer
	if cfg.SelfHeal {
		hc := cfg.Heal
		hc.Cache, hc.Ring, hc.Self, hc.Replicas, hc.PeerUp = cache, router.Ring(), cfg.Fleet.Self, cfg.Fleet.Replicas, router.PeerUp
		hc.Metrics, hc.Logf = reg, logf
		if healer, err = antientropy.New(hc); err != nil {
			return err
		}
	}

	sc.Cache, sc.Queue, sc.Metrics, sc.Logf = cache, queue, reg, logf
	if router != nil {
		sc.Route, sc.PeerFill = router.Route, router.Fill
	}
	if healer != nil {
		sc.Replicate, sc.Heal = healer.Replicate, healer
	}
	srv, err := planserve.New(sc)
	if err != nil {
		return err
	}

	handler := srv.Handler()
	uploadTimeout := cfg.UploadReadTimeout
	if uploadTimeout == 0 {
		uploadTimeout = 30 * time.Second
	}
	if uploadTimeout > 0 {
		handler = uploadDeadline(handler, uploadTimeout)
	}
	outer := http.NewServeMux()
	outer.Handle("/", handler)
	if router != nil {
		outer.HandleFunc("GET /v1/peers", router.servePeers)
	}
	if cfg.Pprof {
		// Registered explicitly, never via the http.DefaultServeMux side
		// effect, and only when asked: pprof on a public address is an
		// information leak.
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Server-side timeouts close the slowloris hole: a client that trickles
	// headers or holds idle keep-alives cannot pin a connection forever. The
	// body-read budget is per-request (uploadDeadline), so a legal large
	// upload is bounded by its own clock, not the header one.
	httpSrv := &http.Server{
		Handler:           outer,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	serveErr := make(chan error, 1)
	nd.mu.Lock()
	nd.srv, nd.router, nd.cache, nd.queue, nd.healer, nd.http, nd.serveErr = srv, router, cache, queue, healer, httpSrv, serveErr
	nd.alive = true
	nd.mu.Unlock()

	// Nothing below fails: start the background work, then serve.
	if queue != nil {
		queue.Start(srv.RunJob)
	}
	if router != nil {
		router.Start()
		logf("fleet: self=%s peers=%d replicas=%d hedge-after=%s",
			cfg.Fleet.Self, len(router.Ring().Nodes()), router.cfg.Replicas, router.cfg.HedgeAfter)
	}
	if cfg.Pprof {
		logf("pprof enabled on %s/debug/pprof/", ln.Addr())
	}
	// Warming is flagged before the listener serves its first request, so
	// there is no window where /readyz answers 200 with the owned ranges
	// still unfetched. The warm-up itself runs after the listener is up: the
	// cache data plane (digests, entry reads, pushes) serves throughout.
	warmup := healer != nil && warm
	if warmup {
		srv.SetWarming(true)
	}
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	logf("serving on %s (inflight=%d queue=%d, deadline=%s, cache=%q)",
		ln.Addr(), sc.MaxInFlight, sc.MaxQueue, sc.DefaultDeadline, cfg.CacheDir)
	if healer != nil {
		if warmup {
			// Synchronous: when start returns, the node has converged as far
			// as its replicas allow.
			deadline := cfg.WarmupDeadline
			if deadline <= 0 {
				deadline = 5 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			if n := healer.Warmup(ctx); n > 0 {
				logf("self-heal: warmed %d owned entries from replicas before ready", n)
			}
			cancel()
			srv.SetWarming(false)
		}
		healer.Start()
	}
	return nil
}

// uploadDeadline sets the connection's read deadline on every POST /v1/plan
// before planserve reads a byte of its body, so the whole body must arrive
// within d, a client's or a forwarded one. MaxUploadBytes caps how much a
// client may send; this caps how slowly: a slowloris client trickling one
// byte a second holds a connection, not a pipeline slot, and is cut off.
func uploadDeadline(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/plan" {
			// Best-effort: a failure to set the deadline must not fail the
			// request.
			_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(d))
		}
		next.ServeHTTP(w, r)
	})
}

// ServeErr delivers the error that stopped the listener, if anything but
// Close or Kill stopped it.
func (nd *Node) ServeErr() <-chan error {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.serveErr
}

// Close drains the node gracefully:
//  1. the router stops probing, so a draining node does not mark peers up
//     or down from a half-torn-down stack (forwarding keeps the last health
//     view while in-flight requests drain);
//  2. planserve stops admitting (/readyz and new plans answer 503) and
//     waits for in-flight pipelines, whose cache writes are synchronous, so
//     a clean drain implies a flushed cache;
//  3. the healer pushes the entries only this node holds to the other
//     replicas while the listener still answers their verification reads,
//     then stops;
//  4. the queue's workers finish their current job and the journal is
//     compacted; jobs still queued resume on restart;
//  5. the listener shuts down.
//
// Each incomplete step is logged; Close returns their errors joined.
func (nd *Node) Close(ctx context.Context) error {
	nd.mu.Lock()
	alive := nd.alive
	nd.alive = false
	srv, router, queue, healer, httpSrv := nd.srv, nd.router, nd.queue, nd.healer, nd.http
	nd.mu.Unlock()
	if !alive {
		return nil
	}
	logf := nd.cfg.Logf
	if router != nil {
		router.Stop()
	}
	drainErr := srv.Shutdown(ctx)
	if drainErr != nil {
		logf("drain incomplete: %v", drainErr)
	}
	if healer != nil {
		healer.DrainPush(ctx)
		healer.Stop()
	}
	var queueErr error
	if queue != nil {
		if queueErr = queue.Stop(ctx); queueErr != nil {
			logf("queue drain incomplete: %v", queueErr)
		}
	}
	httpErr := httpSrv.Shutdown(ctx)
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		logf("http shutdown: %v", httpErr)
	}
	return errors.Join(drainErr, queueErr, httpErr)
}

// Kill abruptly stops the node (no drain): the listener and all connections
// close mid-flight, as a crash would. The cache and queue directories
// survive. Safe to call on a dead node.
func (nd *Node) Kill() {
	nd.mu.Lock()
	alive := nd.alive
	nd.alive = false
	httpSrv, router, queue, healer := nd.http, nd.router, nd.queue, nd.healer
	nd.mu.Unlock()
	if !alive {
		return
	}
	if router != nil {
		router.Stop()
	}
	// The process dies; its goroutines must still join (leakcheck). The
	// cache and journaled jobs survive on disk, which is their point.
	if healer != nil {
		healer.Stop()
	}
	if queue != nil {
		queue.Kill()
	}
	_ = httpSrv.Close()
}

// Restart brings a killed node back on its original address, reopening its
// directories and warming up the way a restarted bootesd would.
func (nd *Node) Restart() error {
	if nd.Alive() {
		return fmt.Errorf("fleet: node %s is already running", nd.URL)
	}
	addr := nd.URL[len("http://"):]
	var ln net.Listener
	var err error
	// The old listener's port can linger in TIME_WAIT for a moment after an
	// abrupt close; retry briefly rather than failing the restart.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("fleet: rebinding %s: %w", addr, err)
	}
	return nd.start(ln, true)
}

// Alive reports whether the node is serving.
func (nd *Node) Alive() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.alive
}

// Server returns the node's current planserve server (nil while killed).
func (nd *Node) Server() *planserve.Server {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if !nd.alive {
		return nil
	}
	return nd.srv
}

// Router returns the node's current fleet router (nil while killed or
// standalone).
func (nd *Node) Router() *Router {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if !nd.alive {
		return nil
	}
	return nd.router
}

// Healer returns the node's anti-entropy healer (nil while killed or when
// SelfHeal is off).
func (nd *Node) Healer() *antientropy.Healer {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if !nd.alive {
		return nil
	}
	return nd.healer
}

// Cache returns the node's plan cache handle (nil while killed). The
// directory outlives kills; the handle does not.
func (nd *Node) Cache() *plancache.Cache {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if !nd.alive {
		return nil
	}
	return nd.cache
}

// Cluster is a set of in-process nodes on one ring.
type Cluster struct {
	Nodes []*Node
}

// LaunchCluster starts n nodes through StartNode, each on its own loopback
// listener and all on one ring. cfg is every member's config, except that
// node i gets Fleet.Self and Fleet.Peers from the bound listeners, its cache
// under CacheDir/node<i>, and its queue (when Queue.Dir is set) under
// Queue.Dir/node<i>. CacheDir is required: restarts reopen it. Leave Metrics
// nil so each node start gets a private registry, as separate processes
// would; a nil Logf discards node diagnostics. On a failed launch every listener bound here is closed.
func LaunchCluster(n int, cfg NodeConfig) (*Cluster, error) {
	if cfg.CacheDir == "" {
		return nil, errors.New("fleet: LaunchCluster requires a CacheDir")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	// Listeners are bound first so every node knows the full peer list
	// before any serves.
	listeners := make([]net.Listener, 0, n)
	peers := make([]string, 0, n)
	closeFrom := func(i int) {
		for _, ln := range listeners[i:] {
			ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		listeners = append(listeners, ln)
		peers = append(peers, "http://"+ln.Addr().String())
	}
	c := &Cluster{}
	for i, ln := range listeners {
		nc := cfg
		nc.CacheDir = filepath.Join(cfg.CacheDir, fmt.Sprintf("node%d", i))
		if cfg.Queue.Dir != "" {
			nc.Queue.Dir = filepath.Join(cfg.Queue.Dir, fmt.Sprintf("node%d", i))
		}
		nc.Fleet.Self, nc.Fleet.Peers = peers[i], peers
		nd, err := StartNode(ln, nc, false)
		if err != nil {
			closeFrom(i + 1) // StartNode closed listeners[i]
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	return c, nil
}

// Close tears the whole cluster down, gracefully, concurrently.
func (c *Cluster) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, nd := range c.Nodes {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			_ = nd.Close(ctx)
		}(nd)
	}
	wg.Wait()
}

// URLs returns every node's advertised address, in launch order.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.Nodes))
	for i, nd := range c.Nodes {
		out[i] = nd.URL
	}
	return out
}
