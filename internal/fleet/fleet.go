// Package fleet shards plan serving across a set of bootesd peers with a
// consistent-hash ring (internal/ring) over the content-addressed MatrixKey.
//
// The Router wraps a node's planserve handler with three fleet behaviors:
//
//   - Forward-to-owner: a POST /v1/plan whose key this node does not own is
//     proxied to the key's owner, so every key's plan is computed and cached
//     on a deterministic replica set instead of wherever a client happened to
//     connect. Forwarded requests carry an X-Bootes-Forwarded header; the
//     receiving node serves them locally (no forwarding loops by
//     construction).
//   - Failure awareness: a background prober walks every peer's /readyz; a
//     peer that fails DownAfter consecutive probes (or live forwards) is
//     routed around until it probes healthy again. Each peer also gets its
//     own planserve circuit breaker, so a flapping peer is skipped for a
//     cooldown rather than hammered.
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
	"bootes/internal/sparse"
)

// ForwardedHeader marks a request already routed by a peer; the receiver
// serves it locally. One hop maximum, by construction.
const ForwardedHeader = "X-Bootes-Forwarded"

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
	// Vnodes is the ring's virtual-node count (default ring.DefaultVnodes).
	Vnodes int
	// HedgeAfter is how long to wait on the owner before firing one hedged
	// duplicate at the next up replica (default 250ms; <0 disables hedging).
	HedgeAfter time.Duration
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure count (probes or live traffic)
	// that marks a peer down (default 2).
	DownAfter int
	// Breaker is the per-peer circuit breaker config; a zero
	// FailureThreshold defaults to 3 failures / 5s cooldown. It reuses the
	// planserve breaker machinery.
	Breaker planserve.BreakerConfig
	// MaxBodyBytes bounds how much request body the router buffers for
	// routing (default 256 MB, matching planserve's upload cap).
	MaxBodyBytes int64
	// Client is the HTTP client for forwards, fills, and probes; nil builds
	// one with sane timeouts.
	Client *http.Client
	// Metrics is the registry fleet counters register on; nil uses a private
	// registry.
	Metrics *obs.Registry
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// Logf sinks routing diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// peerState is one remote peer's health view.
type peerState struct {
	url     string
	breaker *planserve.Breaker
	up      *obs.Gauge // 1 up, 0 down; the exposition view

	mu          sync.Mutex
	isUp        bool
	consecFails int
	lastErr     string
}

func (p *peerState) noteSuccess() (wentUp bool) {
	p.mu.Lock()
	p.consecFails = 0
	p.lastErr = ""
	if !p.isUp {
		p.isUp = true
		wentUp = true
	}
	p.up.Set(1)
	p.mu.Unlock()
	return wentUp
}

func (p *peerState) noteFailure(downAfter int, reason string) (wentDown bool) {
	p.mu.Lock()
	p.consecFails++
	p.lastErr = reason
	if p.isUp && p.consecFails >= downAfter {
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
// prober with Start, wrap the node's handler with Handler, and hand Fill to
// planserve.Config.PeerFill.
type Router struct {
	cfg    Config
	ring   *ring.Ring
	peers  map[string]*peerState // remote peers only; Self is implicit
	client *http.Client
	reg    *obs.Registry

	stop chan struct{}
	wg   sync.WaitGroup

	// memo resolves client bodies this router has parsed before to their
	// key without a parse; forwarded requests meet the receiver's planserve
	// memo instead.
	memo *planserve.BodyMemo

	// onPeerUp, when set, is called with a peer's URL each time this node's
	// health view of it transitions down→up (probe or live traffic). The
	// anti-entropy healer hooks it to deliver parked hints the moment a
	// crashed replica returns. Set once during assembly via SetOnPeerUp;
	// called from prober and request goroutines, so it must be cheap and
	// non-blocking.
	onPeerUpMu sync.Mutex
	onPeerUp   func(peer string)

	probes, probeFails     *obs.Counter
	forwards, forwardFails *obs.Counter
	hedges, hedgeWins      *obs.Counter
	fills, fillMisses      *obs.Counter
	localFallbacks         *obs.Counter
	redirects              *obs.Counter
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
	if cfg.Breaker.FailureThreshold <= 0 {
		cfg.Breaker = planserve.BreakerConfig{FailureThreshold: 3, Cooldown: 5 * time.Second}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	r, err := ring.New(cfg.Peers, cfg.Vnodes)
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
		client: cfg.Client,
		stop:   make(chan struct{}),
	}
	rt.registerMetrics(cfg.Metrics)
	for _, peer := range r.Nodes() {
		if peer == cfg.Self {
			continue
		}
		p := &peerState{
			url:     peer,
			breaker: planserve.NewBreaker(cfg.Breaker, cfg.Now),
			up:      rt.peerUp.With(peer),
			isUp:    true,
		}
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
	rt.redirects = reg.Counter("bootes_fleet_redirects_total", "Clients redirected to the owning node (route=redirect).")
	rt.transitions = reg.CounterVec("bootes_fleet_peer_transitions_total",
		"Peer health-state transitions as seen by this node; a flapping peer shows both directions climbing.", "to")
	rt.probeLatency = reg.Histogram("bootes_fleet_probe_latency_seconds",
		"Round-trip time of peer /readyz health probes.", probeLatencyBuckets)
	rt.peerUp = reg.GaugeVec("bootes_fleet_peer_up", "Peer health as seen by this node: 1 up, 0 down.", "peer")
	rt.memo = planserve.NewBodyMemo(
		reg.Counter("bootes_fleet_body_memo_hits_total", "Client plan bodies resolved from the router's body memo, without a parse."),
		reg.Counter("bootes_fleet_body_memo_misses_total", "Client plan bodies the router's body memo did not know, parsed instead."))
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

// SetOnPeerUp installs the down→up transition hook (see the field comment).
// Call during assembly, before Start.
func (rt *Router) SetOnPeerUp(fn func(peer string)) {
	rt.onPeerUpMu.Lock()
	rt.onPeerUp = fn
	rt.onPeerUpMu.Unlock()
}

// notePeerUp records an up-transition: the metric, and the hook if set.
func (rt *Router) notePeerUp(peer string) {
	rt.transitions.With("up").Inc()
	rt.onPeerUpMu.Lock()
	fn := rt.onPeerUp
	rt.onPeerUpMu.Unlock()
	if fn != nil {
		fn(peer)
	}
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
			if p.noteFailure(rt.cfg.DownAfter, err.Error()) {
				rt.transitions.With("down").Inc()
				rt.cfg.Logf("fleet: peer %s marked down: %v", peer, err)
			}
		} else {
			if !p.upNow() {
				// The peer just came back. Clear stale breaker memory: a
				// passed probe is direct evidence of recovery, better than
				// waiting out a cooldown earned before the restart.
				p.breaker.Reset()
				rt.cfg.Logf("fleet: peer %s recovered", peer)
			}
			if p.noteSuccess() {
				rt.notePeerUp(peer)
			}
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
	URL          string `json:"url"`
	Self         bool   `json:"self,omitempty"`
	Up           bool   `json:"up"`
	ConsecFails  int    `json:"consecFails,omitempty"`
	LastError    string `json:"lastError,omitempty"`
	Breaker      string `json:"breaker,omitempty"`
	BreakerTrips int64  `json:"breakerTrips,omitempty"`
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
		v := PeerView{URL: peer, Up: p.isUp, ConsecFails: p.consecFails, LastError: p.lastErr}
		p.mu.Unlock()
		state, trips := p.breaker.Snapshot()
		v.Breaker, v.BreakerTrips = state.String(), trips
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Handler wraps next (the local planserve handler) with fleet routing and
// serves the GET /v1/peers view.
func (rt *Router) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/peers", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Self  string     `json:"self"`
			Peers []PeerView `json:"peers"`
		}{rt.cfg.Self, rt.Peers()})
	})
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		rt.routePlan(w, r, next)
	})
	mux.Handle("/", next)
	return mux
}

// routePlan decides where a plan request runs. Requests the router cannot or
// should not move — already forwarded, async (job ids are node-local),
// ?path= (the path names this host's filesystem), unparseable bodies (the
// local server owns the error response) — go straight to next.
func (rt *Router) routePlan(w http.ResponseWriter, r *http.Request, next http.Handler) {
	if r.Header.Get(ForwardedHeader) != "" ||
		r.URL.Query().Get("async") != "" ||
		r.URL.Query().Get("path") != "" ||
		rt.ring.Len() == 1 {
		next.ServeHTTP(w, r)
		return
	}
	body, err := planserve.ReadRequestBody(r, rt.cfg.MaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("matrix body exceeds the %d-byte routing limit", rt.cfg.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("reading request body: %v", err), http.StatusBadRequest)
		return
	}
	key, rows, m, err := rt.memo.Resolve(body)
	if err != nil {
		// Not a matrix we can hash: let the local server produce its 400.
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		return
	}
	// Served here, the request carries what its body resolved to, so
	// planserve neither reads nor hashes the body again.
	local := planserve.WithRoutedMatrix(r, key, rows, body, m)
	replicas := rt.ring.Replicas(key, rt.cfg.Replicas)
	if replicas[0] == rt.cfg.Self {
		next.ServeHTTP(w, local)
		return
	}
	if r.URL.Query().Get("route") == "redirect" {
		// The client asked to be told, not proxied: 307 preserves method+body.
		rt.redirects.Inc()
		w.Header().Set("Location", replicas[0]+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	// Remote candidates in ring preference order, filtered by health and
	// per-peer breaker. Self, if it appears in the replica set, terminates
	// the list — beyond it local serving beats longer forwarding chains.
	var candidates []*peerState
	probes := map[*peerState]bool{}
	for _, rep := range replicas {
		if rep == rt.cfg.Self {
			break
		}
		p := rt.peers[rep]
		if !p.upNow() {
			continue
		}
		run, probe := p.breaker.Allow()
		if !run {
			continue
		}
		probes[p] = probe
		candidates = append(candidates, p)
	}
	if len(candidates) == 0 {
		rt.localFallbacks.Inc()
		next.ServeHTTP(w, local)
		return
	}
	fwd := forwardPayload(body, r.Header.Get("Content-Type"), m)
	if resp, peer := rt.forwardHedged(r, fwd, candidates, probes); resp != nil {
		defer resp.Body.Close()
		copyResponse(w, resp, peer.url)
		return
	}
	// Every remote candidate failed: availability beats placement.
	rt.localFallbacks.Inc()
	next.ServeHTTP(w, local)
}

// payload is the body a forward carries, and its content type.
type payload struct {
	body        []byte
	contentType string
}

// forwardPayload chooses what a forward of body carries. A body this router
// parsed, as m, travels as m's BCSR encoding when that is smaller, so the
// owner skips a text parse and the hop moves fewer bytes. Otherwise the body
// travels as the client sent it, and always when the router's memo answered
// (m nil): repeats of those bytes then resolve from the owner's own memo,
// without a parse.
func forwardPayload(body []byte, contentType string, m *sparse.CSR) payload {
	if m == nil {
		return payload{body, contentType}
	}
	size := sparse.BinarySize(m)
	if size >= int64(len(body)) {
		return payload{body, contentType}
	}
	var buf bytes.Buffer
	buf.Grow(int(size))
	_ = sparse.WriteBinary(&buf, m) // writes to a bytes.Buffer do not fail
	return payload{buf.Bytes(), "application/octet-stream"}
}

// forwardHedged forwards to candidates[0] and, if it has not answered within
// HedgeAfter, fires one duplicate at candidates[1]. The first acceptable
// response wins; the loser is cancelled. Returns (nil, nil) when every
// attempt failed.
func (rt *Router) forwardHedged(r *http.Request, body payload, candidates []*peerState, probes map[*peerState]bool) (*http.Response, *peerState) {
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
			if probes[p] {
				p.breaker.CancelProbe()
			}
			results <- attempt{nil, p, err}
			return
		}
		success := err == nil && resp.StatusCode < http.StatusInternalServerError
		rt.recordOutcome(p, probes[p], success, err)
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
	// Candidates that claimed a half-open probe slot but never launched must
	// release it, or the peer's breaker would wait on a probe that never ran.
	for i := launched; i < len(candidates); i++ {
		if probes[candidates[i]] {
			candidates[i].breaker.CancelProbe()
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

// recordOutcome feeds one forward/fill outcome into a peer's breaker and
// health view.
func (rt *Router) recordOutcome(p *peerState, probe, success bool, err error) {
	p.breaker.Record(success, probe)
	if success {
		if p.noteSuccess() {
			rt.notePeerUp(p.url)
		}
		return
	}
	reason := "5xx"
	if err != nil {
		reason = err.Error()
	}
	if p.noteFailure(rt.cfg.DownAfter, reason) {
		rt.transitions.With("down").Inc()
		rt.cfg.Logf("fleet: peer %s marked down after forward failure: %s", p.url, reason)
	}
}

// forwardOnce proxies one plan request to p with body, preserving method,
// path, query, and routing-relevant headers.
func (rt *Router) forwardOnce(ctx context.Context, r *http.Request, body payload, p *peerState) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, p.url+r.URL.RequestURI(), bytes.NewReader(body.body))
	if err != nil {
		return nil, err
	}
	if body.contentType != "" {
		req.Header.Set("Content-Type", body.contentType)
	}
	for _, h := range []string{"X-Deadline", "X-Tenant", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(ForwardedHeader, "1")
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
// against the peer's breaker and health. First decodable entry wins.
func (rt *Router) Fill(ctx context.Context, key string) (*plancache.Entry, bool) {
	for _, rep := range rt.ring.Replicas(key, rt.cfg.Replicas) {
		if rep == rt.cfg.Self {
			continue
		}
		p := rt.peers[rep]
		if !p.upNow() {
			continue
		}
		run, probe := p.breaker.Allow()
		if !run {
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		e, err := antientropy.FetchEntry(fctx, rt.client, p.url, key)
		cancel()
		switch {
		case err != nil && ctx.Err() != nil:
			// The requester ran out of time, which says nothing about the
			// peer's health: release any probe claim and stop.
			if probe {
				p.breaker.CancelProbe()
			}
		case errors.Is(err, antientropy.ErrNotCached):
			// A clean 404: the peer is healthy, it just lacks the key.
			rt.recordOutcome(p, probe, true, nil)
		case err != nil:
			rt.recordOutcome(p, probe, false, err)
		default:
			rt.recordOutcome(p, probe, true, nil)
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
