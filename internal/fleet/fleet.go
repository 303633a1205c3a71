// Package fleet shards plan serving across a set of bootesd peers with a
// consistent-hash ring (internal/ring) over the content-addressed MatrixKey.
//
// The Router gives a node's planserve three fleet behaviors:
//
//   - Forward-to-owner: planserve reads and keys each client POST /v1/plan,
//     through its body memo, and offers it to Route, which proxies a request
//     whose key this node does not own to the key's owner, so every key's
//     plan is computed and cached on a deterministic replica set instead of
//     wherever a client happened to connect. The forward carries the bytes
//     and Content-Type the client sent, so the owner's memo answers every
//     repeat of them without a parse. Forwarded requests carry
//     planserve.ForwardedHeader; the receiving node serves them locally (no
//     forwarding loops by construction).
//   - Failure awareness: a background prober walks every peer's /readyz; a
//     peer that fails DownAfter consecutive probes or live requests (forwards
//     and cache fills) is routed around until one of them succeeds again. A
//     passing probe does not clear failed live requests, so a peer that
//     answers /readyz but fails plan requests is routed around too.
//   - Hedged retries: when the owner has not answered within HedgeAfter, one
//     duplicate request is fired at the next up replica and the first
//     acceptable response wins (bounded at one hedge — tail-latency
//     insurance, not a retry storm). If every remote candidate fails, the
//     node falls back to serving locally: availability beats placement.
//
// The Fill method is the peer cache-fill hook for planserve.Config.PeerFill:
// on a local cache miss the key's replica set is asked (GET /v1/cache/{key})
// before the pipeline burns a slot recomputing a plan a sibling already
// holds.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/ring"
)

// ServedByHeader names the node that produced a proxied response.
const ServedByHeader = "X-Bootes-Served-By"

// Config assembles a Router.
type Config struct {
	// Self is this node's advertised URL; must be one of Peers.
	Self string
	// Peers is every fleet member's URL, including Self. Order is
	// irrelevant: the ring sorts.
	Peers []string
	// Replicas is the replica-set size per key (default 2, clamped to the
	// fleet size). The owner is replica 0.
	Replicas int
	// HedgeAfter is how long to wait on the owner before firing one hedged
	// duplicate at the next up replica (default 250ms; <0 disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure count (probes or live traffic)
	// that marks a peer down (default 2). A passing probe clears only the
	// failed probes; a successful forward or fill clears both kinds.
	DownAfter int
	// Metrics is the registry fleet counters register on; nil uses a private
	// registry.
	Metrics *obs.Registry
	// Logf sinks routing diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// peerState is one remote peer's health view.
type peerState struct {
	url string
	up  *obs.Gauge // 1 up, 0 down; the exposition view

	mu   sync.Mutex
	isUp bool
	// probeFails and liveFails count consecutive failed probes and failed
	// forwards or fills; the peer is marked down when their sum reaches
	// DownAfter. A passing probe clears only probeFails, because a peer can
	// answer /readyz and still fail every plan request; a successful forward
	// or fill clears both, and so does the peer coming back up.
	probeFails, liveFails int
	lastErr               string
}

// noteSuccess records a passing probe (live false) or a forward or fill
// that succeeded (live true).
func (p *peerState) noteSuccess(live bool) (wentUp bool) {
	p.mu.Lock()
	p.probeFails = 0
	if live || !p.isUp {
		p.liveFails = 0
	}
	if p.liveFails == 0 {
		p.lastErr = ""
	}
	if !p.isUp {
		p.isUp = true
		wentUp = true
	}
	p.up.Set(1)
	p.mu.Unlock()
	return wentUp
}

// noteFailure records a failed probe (live false) or a forward or fill that
// failed (live true).
func (p *peerState) noteFailure(live bool, downAfter int, reason string) (wentDown bool) {
	p.mu.Lock()
	if live {
		p.liveFails++
	} else {
		p.probeFails++
	}
	p.lastErr = reason
	if p.isUp && p.probeFails+p.liveFails >= downAfter {
		p.isUp = false
		wentDown = true
	}
	if !p.isUp {
		p.up.Set(0)
	}
	p.mu.Unlock()
	return wentDown
}

func (p *peerState) upNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.isUp
}

// Router implements fleet routing for one node. Build with New, start the
// prober with Start, and hand Route to planserve.Config.Route and Fill to
// planserve.Config.PeerFill.
type Router struct {
	cfg    Config
	ring   *ring.Ring
	peers  map[string]*peerState // remote peers only; Self is implicit
	client *http.Client
	reg    *obs.Registry

	stop chan struct{}
	wg   sync.WaitGroup

	probes, probeFails     *obs.Counter
	forwards, forwardFails *obs.Counter
	hedges, hedgeWins      *obs.Counter
	fills, fillMisses      *obs.Counter
	localFallbacks         *obs.Counter
	transitions            *obs.CounterVec
	probeLatency           *obs.Histogram
	peerUp                 *obs.GaugeVec
}

// New validates cfg and builds the router. Every peer starts up: traffic
// flows immediately and the prober demotes the actually-dead ones within
// DownAfter probe rounds.
func New(cfg Config) (*Router, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: Config.Self is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 250 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	r, err := ring.New(cfg.Peers, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if !r.Contains(cfg.Self) {
		return nil, fmt.Errorf("fleet: self %q is not in the peer list", cfg.Self)
	}
	rt := &Router{
		cfg:    cfg,
		ring:   r,
		peers:  make(map[string]*peerState),
		client: &http.Client{Timeout: 2 * time.Minute},
		stop:   make(chan struct{}),
	}
	rt.registerMetrics(cfg.Metrics)
	for _, peer := range r.Nodes() {
		if peer == cfg.Self {
			continue
		}
		p := &peerState{url: peer, up: rt.peerUp.With(peer), isUp: true}
		p.up.Set(1)
		rt.peers[peer] = p
	}
	return rt, nil
}

func (rt *Router) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt.reg = reg
	rt.probes = reg.Counter("bootes_fleet_probes_total", "Peer health probes sent.")
	rt.probeFails = reg.Counter("bootes_fleet_probe_failures_total", "Peer health probes that failed.")
	rt.forwards = reg.Counter("bootes_fleet_forwards_total", "Plan requests forwarded to a replica.")
	rt.forwardFails = reg.Counter("bootes_fleet_forward_failures_total", "Forward attempts that failed (transport error or 5xx).")
	rt.hedges = reg.Counter("bootes_fleet_hedges_total", "Hedged duplicate requests fired at the next replica.")
	rt.hedgeWins = reg.Counter("bootes_fleet_hedge_wins_total", "Hedged requests that answered before the primary.")
	rt.fills = reg.Counter("bootes_fleet_peer_fills_total", "Cache entries fetched from a sibling's cache.")
	rt.fillMisses = reg.Counter("bootes_fleet_peer_fill_misses_total", "Peer cache-fill rounds that found no sibling copy.")
	rt.localFallbacks = reg.Counter("bootes_fleet_local_fallbacks_total", "Requests served locally after every remote replica failed.")
	rt.transitions = reg.CounterVec("bootes_fleet_peer_transitions_total",
		"Peer health-state transitions as seen by this node; a flapping peer shows both directions climbing.", "to")
	rt.probeLatency = reg.Histogram("bootes_fleet_probe_latency_seconds",
		"Round-trip time of peer /readyz health probes.", probeLatencyBuckets)
	rt.peerUp = reg.GaugeVec("bootes_fleet_peer_up", "Peer health as seen by this node: 1 up, 0 down.", "peer")
	reg.GaugeFunc("bootes_fleet_ring_nodes", "Nodes on the consistent-hash ring.", func() int64 {
		return int64(rt.ring.Len())
	})
}

// probeLatencyBuckets spans loopback probes through WAN round trips; the
// ProbeTimeout default (1s) caps the histogram's reach.
var probeLatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Ring exposes the router's ring (clients and tests route against the same
// assignments this node uses).
func (rt *Router) Ring() *ring.Ring { return rt.ring }

// PeerUp reports this node's current health view of peer. Self is always up
// (a node that can ask is serving); unknown peers are down.
func (rt *Router) PeerUp(peer string) bool {
	if peer == rt.cfg.Self {
		return true
	}
	p, ok := rt.peers[peer]
	return ok && p.upNow()
}

// Start launches the background health prober.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.probeAll()
			}
		}
	}()
}

// Stop halts the prober and releases idle connections. Idempotent-unsafe:
// call exactly once, after which the Router keeps routing with its last
// health view (bootesd calls it during drain).
func (rt *Router) Stop() {
	close(rt.stop)
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// probeAll probes every remote peer once, sequentially — fleet sizes here
// are single digits and sequential probes keep the goroutine count flat.
func (rt *Router) probeAll() {
	for _, peer := range rt.ring.Nodes() {
		if peer == rt.cfg.Self {
			continue
		}
		p := rt.peers[peer]
		rt.probes.Inc()
		start := time.Now()
		err := rt.probeOne(p)
		rt.probeLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			rt.probeFails.Inc()
			if p.noteFailure(false, rt.cfg.DownAfter, err.Error()) {
				rt.transitions.With("down").Inc()
				rt.cfg.Logf("fleet: peer %s marked down: %v", peer, err)
			}
		} else if p.noteSuccess(false) {
			rt.transitions.With("up").Inc()
			rt.cfg.Logf("fleet: peer %s recovered", peer)
		}
	}
}

func (rt *Router) probeOne(p *peerState) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz returned %d", resp.StatusCode)
	}
	return nil
}

// PeerView is one row of the /v1/peers fleet view.
type PeerView struct {
	URL         string `json:"url"`
	Self        bool   `json:"self,omitempty"`
	Up          bool   `json:"up"`
	ConsecFails int    `json:"consecFails,omitempty"`
	LastError   string `json:"lastError,omitempty"`
}

// Peers snapshots the fleet health view, sorted by URL (self included,
// always up — a node that can answer /v1/peers is by definition serving).
func (rt *Router) Peers() []PeerView {
	out := make([]PeerView, 0, rt.ring.Len())
	for _, peer := range rt.ring.Nodes() {
		if peer == rt.cfg.Self {
			out = append(out, PeerView{URL: peer, Self: true, Up: true})
			continue
		}
		p := rt.peers[peer]
		p.mu.Lock()
		v := PeerView{URL: peer, Up: p.isUp, ConsecFails: p.probeFails + p.liveFails, LastError: p.lastErr}
		p.mu.Unlock()
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// servePeers serves GET /v1/peers, this node's fleet health view.
func (rt *Router) servePeers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Self  string     `json:"self"`
		Peers []PeerView `json:"peers"`
	}{rt.cfg.Self, rt.Peers()})
}

// Route is the planserve.Config.Route hook: it forwards a client's plan
// request, which planserve has read and keyed, to the key's owner and relays
// the answer, or returns false for planserve to serve it here. It serves
// here what this node owns, and falls back to serving here when no remote
// replica is up, or every forward failed: availability beats placement.
func (rt *Router) Route(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	replicas := rt.ring.Replicas(key, rt.cfg.Replicas)
	if replicas[0] == rt.cfg.Self {
		return false
	}
	// Remote candidates in ring preference order, filtered by health. Self,
	// if it appears in the replica set, terminates the list — beyond it local
	// serving beats longer forwarding chains.
	var candidates []*peerState
	for _, rep := range replicas {
		if rep == rt.cfg.Self {
			break
		}
		if p := rt.peers[rep]; p.upNow() {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		rt.localFallbacks.Inc()
		return false
	}
	resp, peer := rt.forwardHedged(r, body, candidates)
	if resp == nil {
		rt.localFallbacks.Inc()
		return false
	}
	defer resp.Body.Close()
	copyResponse(w, resp, peer.url)
	return true
}

// forwardHedged forwards body to candidates[0] and, if it has not answered
// within HedgeAfter, fires one duplicate at candidates[1]. The first
// acceptable response wins; the loser is cancelled. Returns (nil, nil) when
// every attempt failed.
func (rt *Router) forwardHedged(r *http.Request, body []byte, candidates []*peerState) (*http.Response, *peerState) {
	type attempt struct {
		resp *http.Response
		peer *peerState
		err  error
	}
	ctx, cancel := context.WithCancel(r.Context())
	// cancel fires only after the winner's body has been fully copied (or on
	// total failure); cancelling earlier would sever the winning stream.
	results := make(chan attempt, len(candidates))
	launch := func(p *peerState) {
		rt.forwards.Inc()
		resp, err := rt.forwardOnce(ctx, r, body, p)
		if err != nil && ctx.Err() != nil {
			// Cancelled because the race was decided, not because the peer is
			// sick: no verdict either way.
			results <- attempt{nil, p, err}
			return
		}
		success := err == nil && resp.StatusCode < http.StatusInternalServerError
		rt.recordOutcome(p, success, err)
		if err == nil && !success {
			// A 5xx is a failed attempt; drain it so the connection is reusable.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			err = fmt.Errorf("%s answered %d", p.url, resp.StatusCode)
			resp = nil
		}
		results <- attempt{resp, p, err}
	}
	go launch(candidates[0])
	launched, finished := 1, 0
	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter >= 0 && len(candidates) > 1 {
		ht := time.NewTimer(rt.cfg.HedgeAfter)
		defer ht.Stop()
		hedge = ht.C
	}
	var winner *http.Response
	var winnerPeer *peerState
	for finished < launched && winner == nil {
		select {
		case <-hedge:
			hedge = nil
			rt.hedges.Inc()
			go launch(candidates[1])
			launched++
		case a := <-results:
			finished++
			if a.err != nil {
				if ctx.Err() == nil {
					rt.forwardFails.Inc()
					rt.cfg.Logf("fleet: forward to %s failed: %v", a.peer.url, a.err)
				}
				if finished == launched && hedge != nil && launched < len(candidates) {
					// The primary died before the hedge timer: promote the
					// hedge immediately rather than waiting out the timer.
					hedge = nil
					go launch(candidates[1])
					launched++
				}
				continue
			}
			winner = a.resp
			winnerPeer = a.peer
			if a.peer != candidates[0] {
				rt.hedgeWins.Inc()
			}
		}
	}
	if remaining := launched - finished; remaining > 0 {
		// A loser is still in flight; reap its result so its body (if any)
		// is closed and the connection returns to the pool.
		go func() {
			for i := 0; i < remaining; i++ {
				if a := <-results; a.resp != nil {
					_, _ = io.Copy(io.Discard, io.LimitReader(a.resp.Body, 1<<20))
					a.resp.Body.Close()
				}
			}
		}()
	}
	if winner == nil {
		cancel()
		return nil, nil
	}
	// Losers still in flight are cancelled once the winner's body is closed
	// by the caller; tie cancel to the response body lifetime.
	winner.Body = &cancelOnClose{ReadCloser: winner.Body, cancel: cancel}
	return winner, winnerPeer
}

// cancelOnClose cancels the forward context when the response body is
// closed, reaping any still-running hedge duplicate.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// recordOutcome feeds one forward/fill outcome into a peer's health view.
func (rt *Router) recordOutcome(p *peerState, success bool, err error) {
	if success {
		if p.noteSuccess(true) {
			rt.transitions.With("up").Inc()
		}
		return
	}
	reason := "5xx"
	if err != nil {
		reason = err.Error()
	}
	if p.noteFailure(true, rt.cfg.DownAfter, reason) {
		rt.transitions.With("down").Inc()
		rt.cfg.Logf("fleet: peer %s marked down after forward failure: %s", p.url, reason)
	}
}

// forwardOnce proxies one plan request to p with body, the bytes the client
// sent, preserving method, path, query, and the content and routing headers.
func (rt *Router) forwardOnce(ctx context.Context, r *http.Request, body []byte, p *peerState) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, p.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Deadline", "X-Tenant", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(planserve.ForwardedHeader, "1")
	return rt.client.Do(req)
}

// copyResponse relays a proxied response, stamping which node served it.
func copyResponse(w http.ResponseWriter, resp *http.Response, servedBy string) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(ServedByHeader, servedBy)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// Fill is the planserve.Config.PeerFill hook: on a local cache miss, ask the
// key's other up replicas for their cached entry (GET /v1/cache/{key}). A
// 404 is a clean miss, not a peer failure; transport errors and 5xx count
// against the peer's health. First decodable entry wins.
func (rt *Router) Fill(ctx context.Context, key string) (*plancache.Entry, bool) {
	for _, rep := range rt.ring.Replicas(key, rt.cfg.Replicas) {
		if rep == rt.cfg.Self {
			continue
		}
		p := rt.peers[rep]
		if !p.upNow() {
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		e, err := antientropy.FetchEntry(fctx, rt.client, p.url, key)
		cancel()
		switch {
		case err != nil && ctx.Err() != nil:
			// The requester ran out of time, which says nothing about the
			// peer's health: record nothing and stop.
		case errors.Is(err, antientropy.ErrNotCached):
			// A clean 404: the peer is healthy, it just lacks the key.
			rt.recordOutcome(p, true, nil)
		case err != nil:
			rt.recordOutcome(p, false, err)
		default:
			rt.recordOutcome(p, true, nil)
			rt.fills.Inc()
			return e, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	rt.fillMisses.Inc()
	return nil, false
}
