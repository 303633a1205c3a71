package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootes"
	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func testMatrix(t testing.TB, seed int64) *sparse.CSR {
	t.Helper()
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 48, Cols: 48, Density: 0.08, Seed: seed, Groups: 4,
	})
}

func mmBody(t testing.TB, m *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingPlan is a fast healthy pipeline that counts fleet-wide computes.
func countingPlan(computes *atomic.Int64) planserve.PlanFunc {
	return func(_ context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
		computes.Add(1)
		perm := make(sparse.Permutation, m.Rows)
		for i := range perm {
			perm[i] = int32(m.Rows - 1 - i)
		}
		return &reorder.Result{
			Perm:      perm,
			Reordered: true,
			Extra:     map[string]float64{"k": 8},
		}, nil
	}
}

func postPlan(t testing.TB, client *http.Client, url string, body []byte) (*http.Response, planserve.PlanResponse) {
	t.Helper()
	resp, err := client.Post(url+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/plan: %v", url, err)
	}
	defer resp.Body.Close()
	var pr planserve.PlanResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("decoding plan response: %v\n%s", err, data)
		}
	}
	return resp, pr
}

// TestClusterComputesOncePerKey: the same matrix posted through every node
// is computed exactly once fleet-wide — forwarding sends all three requests
// to the owner, whose cache and coalescing absorb the repeats.
func TestClusterComputesOncePerKey(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 50 * time.Millisecond},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 1))
	owner := c.Nodes[0].Router().Ring().Owner(keyMust(t, body))
	for i, nd := range c.Nodes {
		resp, pr := postPlan(t, client, nd.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d", i, resp.StatusCode)
		}
		if !pr.Reordered {
			t.Fatalf("node %d: plan not reordered", i)
		}
		if served := resp.Header.Get(ServedByHeader); nd.URL != owner && served != owner {
			t.Errorf("node %d: served by %q, want owner %q", i, served, owner)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed the plan %d times, want exactly 1", n)
	}
}

func keyMust(t testing.TB, body []byte) string {
	t.Helper()
	m, err := sparse.ReadBody(body)
	if err != nil {
		t.Fatalf("test body did not parse as a matrix: %v", err)
	}
	return plancache.KeyCSR(m)
}

// TestPeerFill: a node that receives a pre-forwarded request (never routed
// again) for a key a sibling has cached serves it by peer fill, without
// running its own pipeline.
func TestPeerFill(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 50 * time.Millisecond},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 2))
	key := keyMust(t, body)
	owner := c.Nodes[0].Router().Ring().Owner(key)
	var ownerNode, otherNode *Node
	for _, nd := range c.Nodes {
		if nd.URL == owner {
			ownerNode = nd
		} else {
			otherNode = nd
		}
	}

	// Compute and cache on the owner.
	if resp, _ := postPlan(t, client, ownerNode.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming owner: status %d", resp.StatusCode)
	}
	if _, ok := ownerNode.Cache().Peek(key); !ok {
		t.Fatal("owner did not cache the plan")
	}

	// Hit a non-owner directly, marked as already forwarded so it serves the
	// request itself; the local miss must fill from the owner's cache.
	req, _ := http.NewRequest(http.MethodPost, otherNode.URL+"/v1/plan", bytes.NewReader(body))
	req.Header.Set(planserve.ForwardedHeader, "1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr planserve.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.PeerFilled {
		t.Errorf("response not marked peerFilled: %+v", pr)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed %d times, want 1 (fill, not recompute)", n)
	}
	if st := otherNode.Server().Stats(); st.PeerFills != 1 {
		t.Errorf("serving node PeerFills = %d, want 1", st.PeerFills)
	}
	// The fill replicated the entry locally: a second hit is a plain cache hit.
	if _, ok := otherNode.Cache().Peek(key); !ok {
		t.Error("peer-filled entry was not replicated into the local cache")
	}
}

// TestProbesMarkPeerDownAndRouteAround: killing a node flips it down in the
// survivors' health view, keys it owned are served by surviving replicas,
// and a restart brings it back up.
func TestProbesMarkPeerDownAndRouteAround(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet: Config{
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  250 * time.Millisecond,
			DownAfter:     2,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	victim := c.Nodes[0]
	victim.Kill()
	survivor := c.Nodes[1]
	waitFor(t, 5*time.Second, func() bool {
		for _, pv := range survivor.Router().Peers() {
			if pv.URL == victim.URL {
				return !pv.Up
			}
		}
		return false
	}, "survivor never marked the killed node down")

	// Find a matrix owned by the dead node; the fleet must still serve it.
	ring := survivor.Router().Ring()
	var body []byte
	for seed := int64(1); ; seed++ {
		b := mmBody(t, testMatrix(t, seed))
		if ring.Owner(keyMust(t, b)) == victim.URL {
			body = b
			break
		}
	}
	resp, pr := postPlan(t, client, survivor.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request owned by dead node: status %d", resp.StatusCode)
	}
	if !pr.Reordered {
		t.Fatal("plan not reordered")
	}

	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, pv := range survivor.Router().Peers() {
			if pv.URL == victim.URL {
				return pv.Up
			}
		}
		return false
	}, "survivor never saw the restarted node come back up")
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// routerHarness serves plan requests through a planserve whose Route is a
// Router over stub "remote peers" (HTTP servers) and whose pipeline is a
// counting stub — the unit bench for hedging and health tests.
type routerHarness struct {
	rt      *Router
	reg     *obs.Registry // the router's and the server's metrics
	front   *httptest.Server
	localHi atomic.Int64 // pipeline runs: requests served here
}

func newRouterHarness(t *testing.T, cfg Config, backends ...*httptest.Server) *routerHarness {
	t.Helper()
	h := &routerHarness{reg: obs.NewRegistry()}
	self := "http://self.invalid"
	peers := []string{self}
	for _, b := range backends {
		peers = append(peers, b.URL)
	}
	cfg.Self, cfg.Peers, cfg.Metrics = self, peers, h.reg
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.rt = rt
	srv, err := planserve.New(planserve.Config{Plan: countingPlan(&h.localHi), Route: rt.Route, Metrics: h.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h.front = httptest.NewServer(srv.Handler())
	t.Cleanup(h.front.Close)
	return h
}

// bodyOwnedBy searches seeds for a test matrix whose key has the wanted
// replica preference order, and returns its Matrix Market body.
func bodyOwnedBy(t *testing.T, rt *Router, n int, want ...string) []byte {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		b := mmBody(t, testMatrix(t, seed))
		reps := rt.Ring().Replicas(keyMust(t, b), n)
		if len(reps) != len(want) {
			continue
		}
		match := true
		for i := range want {
			if reps[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return b
		}
	}
	t.Fatal("no seed produced the wanted replica order")
	return nil
}

// TestHedgedForwardWinsOnSlowOwner: the owner stalls past HedgeAfter, the
// hedge fires at the next replica, and its response answers the client.
func TestHedgedForwardWinsOnSlowOwner(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, `{"servedBy":"slow"}`)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"servedBy":"fast"}`)
	}))
	defer fast.Close()

	h := newRouterHarness(t, Config{
		Replicas:   3,
		HedgeAfter: 20 * time.Millisecond,
	}, slow, fast)
	body := bodyOwnedBy(t, h.rt, 2, slow.URL, fast.URL)

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(h.front.URL+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(data, []byte("fast")) {
		t.Fatalf("response %q did not come from the hedge target", data)
	}
	if got := resp.Header.Get(ServedByHeader); got != fast.URL {
		t.Errorf("%s = %q, want %q", ServedByHeader, got, fast.URL)
	}
	if n := h.rt.hedges.Value(); n != 1 {
		t.Errorf("hedges fired = %d, want 1", n)
	}
	if n := h.rt.hedgeWins.Value(); n != 1 {
		t.Errorf("hedge wins = %d, want 1", n)
	}
}

// TestForwardFailureFallsBackLocal: when every remote replica refuses, the
// receiving node serves the request itself rather than failing it.
func TestForwardFailureFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()

	h := newRouterHarness(t, Config{
		Replicas:   2,
		HedgeAfter: -1, // no hedging: isolate the fallback path
	}, dead)
	// With 2 nodes and Replicas=2 every key's replica set is {dead, self} or
	// {self, ...}; find one owned by the dead backend.
	body := bodyOwnedBy(t, h.rt, 1, dead.URL)

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(h.front.URL+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != "" || !bytes.Contains(data, []byte(`"reordered":true`)) {
		t.Fatalf("status %d served by %q body %q, want a plan served here", resp.StatusCode, resp.Header.Get(ServedByHeader), data)
	}
	if n := h.rt.localFallbacks.Value(); n != 1 {
		t.Errorf("local fallbacks = %d, want 1", n)
	}
	if n := h.localHi.Load(); n != 1 {
		t.Errorf("local pipeline runs = %d, want 1", n)
	}
}

// TestForwardFailuresMarkPeerDown: a peer that answers /readyz but fails
// every forward is marked down by its DownAfter-th consecutive failure, and
// later requests stop reaching it and are served here.
func TestForwardFailuresMarkPeerDown(t *testing.T) {
	var hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()

	h := newRouterHarness(t, Config{
		Replicas:   2,
		HedgeAfter: -1,
		DownAfter:  3,
		// The harness starts no prober, so only forwards move the peer's
		// health; TestForwardFailuresOutlastPassingProbes runs one.
		ProbeInterval: time.Hour,
	}, dead)
	body := bodyOwnedBy(t, h.rt, 1, dead.URL)

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 6; i++ {
		resp, err := client.Post(h.front.URL+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (local fallback must absorb peer failure)", i, resp.StatusCode)
		}
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("failing peer was hit %d times, want exactly DownAfter's 3 failures before it was marked down", n)
	}
	if h.rt.PeerUp(dead.URL) {
		t.Error("failing peer still up after DownAfter failed forwards")
	}
	if n := h.localHi.Load(); n != 6 {
		t.Errorf("local pipeline runs = %d, want 6", n)
	}
}

// TestForwardFailuresOutlastPassingProbes: a passing /readyz probe does not
// clear failed forwards, so a peer that answers probes but fails every
// forward is marked down by its DownAfter-th failed forward even when the
// prober passes it between every two of them.
func TestForwardFailuresOutlastPassingProbes(t *testing.T) {
	var probes, hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
			return
		}
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()

	h := newRouterHarness(t, Config{
		Replicas:      2,
		HedgeAfter:    -1,
		DownAfter:     3,
		ProbeInterval: 5 * time.Millisecond,
	}, dead)
	h.rt.Start()
	defer h.rt.Stop()
	body := bodyOwnedBy(t, h.rt, 1, dead.URL)
	down := h.rt.transitions.With("down")

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i := 1; i <= 3; i++ {
		// Probes run one at a time, so once two more have reached the peer,
		// the first of them passed and was recorded after the last forward.
		seen := probes.Load()
		waitFor(t, 5*time.Second, func() bool { return probes.Load() >= seen+2 }, "two probes between forwards")
		resp, err := client.Post(h.front.URL+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (local fallback must absorb peer failure)", i, resp.StatusCode)
		}
		if got, want := down.Value(), int64(i/3); got != want {
			t.Fatalf("after %d failed forwards with passing probes between them: %d down transitions, want %d", i, got, want)
		}
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("failing peer was hit %d times, want 3", n)
	}
	if n := h.localHi.Load(); n != 3 {
		t.Errorf("local pipeline runs = %d, want 3", n)
	}
}

// TestFillSkipsDownPeersAndVerifiesKey: Fill ignores down peers and rejects
// an entry whose embedded key does not match the request.
func TestFillSkipsDownPeersAndVerifiesKey(t *testing.T) {
	var wrongKey atomic.Bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		e := &plancache.Entry{
			Key:       "deadbeef",
			Perm:      sparse.Permutation{1, 0},
			Reordered: true,
			K:         2,
		}
		if !wrongKey.Load() {
			// Serve under whatever key was asked.
			e.Key = r.URL.Path[len("/v1/cache/"):]
		}
		data, err := plancache.EncodeEntry(e)
		if err != nil {
			t.Error(err)
		}
		_, _ = w.Write(data)
	}))
	defer backend.Close()

	h := newRouterHarness(t, Config{Replicas: 3}, backend)
	ctx := context.Background()
	someKey, otherKey := strings.Repeat("a", 64), strings.Repeat("b", 64)
	if e, ok := h.rt.Fill(ctx, someKey); !ok || e == nil || e.Key != someKey {
		t.Fatalf("Fill = (%v, %v), want a matching entry", e, ok)
	}
	wrongKey.Store(true)
	if _, ok := h.rt.Fill(ctx, otherKey); ok {
		t.Error("Fill accepted an entry whose embedded key mismatched")
	}

	// Down peer: no fill, no request.
	p := h.rt.peers[backend.URL]
	p.mu.Lock()
	p.isUp = false
	p.mu.Unlock()
	if _, ok := h.rt.Fill(ctx, someKey); ok {
		t.Error("Fill consulted a down peer")
	}
}

// TestPeersEndpoint: a fleet node's /v1/peers view lists every fleet member
// with self marked and health visible.
func TestPeersEndpoint(t *testing.T) {
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	self, other := c.Nodes[0].URL, c.Nodes[1].URL

	resp, err := http.Get(self + "/v1/peers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Self  string     `json:"self"`
		Peers []PeerView `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Self != self {
		t.Errorf("self = %q, want %q", view.Self, self)
	}
	if len(view.Peers) != 2 {
		t.Fatalf("%d peers listed, want 2", len(view.Peers))
	}
	var selfSeen, peerSeen bool
	for _, pv := range view.Peers {
		if pv.Self {
			selfSeen = true
			if !pv.Up {
				t.Error("self listed as down")
			}
		} else {
			peerSeen = true
			if pv.URL != other {
				t.Errorf("peer URL %q, want %q", pv.URL, other)
			}
		}
	}
	if !selfSeen || !peerSeen {
		t.Errorf("view missing rows: self=%v peer=%v", selfSeen, peerSeen)
	}
}

// TestConcurrentForwardsRace exercises the router's shared state under
// parallel traffic for the race detector.
func TestConcurrentForwardsRace(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 20 * time.Millisecond},
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	bodies := [][]byte{
		mmBody(t, testMatrix(t, 10)),
		mmBody(t, testMatrix(t, 11)),
		mmBody(t, testMatrix(t, 12)),
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				nd := c.Nodes[(w+i)%len(c.Nodes)]
				resp, err := client.Post(nd.URL+"/v1/plan", "application/octet-stream",
					bytes.NewReader(bodies[(w+i)%len(bodies)]))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := computes.Load(); n != 3 {
		t.Errorf("fleet computed %d plans for 3 distinct matrices, want 3", n)
	}
}

// arrival is one forward a stub peer received.
type arrival struct {
	contentType string
	body        []byte
}

// forwardRig is a router over two stub peers that ask for the body on every
// read by key and record every body forward they receive: the key's owner,
// which stalls until the forward is cancelled and so loses every race to the
// hedge, and the hedge target, which answers.
type forwardRig struct {
	*routerHarness
	owner, hedge *httptest.Server
	client       *http.Client

	mu       sync.Mutex
	arrivals []arrival
}

func newForwardRig(t *testing.T) *forwardRig {
	t.Helper()
	fr := &forwardRig{client: &http.Client{Timeout: 10 * time.Second}}
	peer := func(stall bool) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" || askForBody(w, r) {
				return
			}
			b, _ := io.ReadAll(r.Body)
			fr.mu.Lock()
			fr.arrivals = append(fr.arrivals, arrival{r.Header.Get("Content-Type"), b})
			fr.mu.Unlock()
			if stall {
				<-r.Context().Done()
				return
			}
			fmt.Fprint(w, `{}`)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	fr.owner, fr.hedge = peer(true), peer(false)
	fr.routerHarness = newRouterHarness(t, Config{Replicas: 3, HedgeAfter: 20 * time.Millisecond}, fr.owner, fr.hedge)
	t.Cleanup(fr.client.CloseIdleConnections)
	return fr
}

// post sends body to the router and returns the two body forwards of it,
// the owner's and the hedge's.
func (fr *forwardRig) post(t *testing.T, contentType string, body []byte) []arrival {
	t.Helper()
	fr.mu.Lock()
	n := len(fr.arrivals)
	fr.mu.Unlock()
	resp, err := fr.client.Post(fr.front.URL+"/v1/plan", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, func() bool {
		fr.mu.Lock()
		defer fr.mu.Unlock()
		return len(fr.arrivals) == n+2
	}, "owner and hedge did not both receive the forward")
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]arrival(nil), fr.arrivals[n:]...)
}

// TestForwardCarriesClientBytes: a request to a non-owner reaches the owner,
// and the hedge target, as the bytes and Content-Type the client sent,
// whichever matrix format the client chose.
func TestForwardCarriesClientBytes(t *testing.T) {
	fr := newForwardRig(t)
	text := bodyOwnedBy(t, fr.rt, 2, fr.owner.URL, fr.hedge.URL)
	m, err := sparse.ReadMatrixMarket(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := sparse.WriteBinary(&bin, m); err != nil {
		t.Fatal(err)
	}
	for _, sent := range []arrival{{"text/plain", text}, {"application/octet-stream", bin.Bytes()}} {
		for i, a := range fr.post(t, sent.contentType, sent.body) {
			if a.contentType != sent.contentType || !bytes.Equal(a.body, sent.body) {
				t.Errorf("%s body, forward %d: Content-Type %q, %d bytes; want the client's %d bytes",
					sent.contentType, i, a.contentType, len(a.body), len(sent.body))
			}
		}
	}
}

// TestForwardedAnswerMatchesOwnerDirect: through a real cluster, a Matrix
// Market request forwarded by a non-owner gets the same bytes back (key,
// perm and all) as the same request sent to the owner directly, and both
// are what json.Encoder writes for the owner's cached plan.
func TestForwardedAnswerMatchesOwnerDirect(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 50 * time.Millisecond},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 3))
	owner := c.Nodes[0].Router().Ring().Owner(keyMust(t, body))
	ask := func(url string) (string, []byte) {
		t.Helper()
		resp, err := client.Post(url+"/v1/plan?perm=1", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, data)
		}
		return resp.Header.Get(ServedByHeader), data
	}
	ask(owner) // the miss that plans and caches
	_, direct := ask(owner)
	e, ok := nodeByURL(t, c, owner).Cache().Get(keyMust(t, body))
	if !ok {
		t.Fatal("the owner cached no plan")
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&planserve.PlanResponse{
		Key: e.Key, Reordered: e.Reordered, K: e.K, Degraded: e.Degraded, DegradedReason: e.DegradedReason,
		PreprocessSeconds: e.PreprocessSeconds, FootprintBytes: e.FootprintBytes, Rows: len(e.Perm),
		Cached: true, Perm: e.Perm,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, want.Bytes()) {
		t.Errorf("the owner's hit differs from json.Encoder's encoding\n got %s\nwant %s", direct, want.Bytes())
	}
	for _, nd := range c.Nodes {
		if nd.URL == owner {
			continue
		}
		servedBy, forwarded := ask(nd.URL)
		if servedBy != owner {
			t.Errorf("via %s: served by %q, want owner %q", nd.URL, servedBy, owner)
		}
		if !bytes.Equal(forwarded, direct) {
			t.Errorf("via %s: forwarded answer differs from the owner's\n got %s\nwant %s", nd.URL, forwarded, direct)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed the plan %d times, want 1", n)
	}
}

// TestForwardAfterMemoHitCarriesClientBytes: a node forwards the client's
// bytes verbatim, to the owner and to the hedge alike, both the first time
// it sees a body (it parses it) and once its memo knows the body.
func TestForwardAfterMemoHitCarriesClientBytes(t *testing.T) {
	fr := newForwardRig(t)
	body := bodyOwnedBy(t, fr.rt, 2, fr.owner.URL, fr.hedge.URL)
	for req := 1; req <= 2; req++ {
		for i, a := range fr.post(t, "text/plain", body) {
			if a.contentType != "text/plain" || !bytes.Equal(a.body, body) {
				t.Errorf("request %d, forward %d: Content-Type %q, %d bytes; want the client's bytes",
					req, i, a.contentType, len(a.body))
			}
		}
	}
	var exp strings.Builder
	if err := fr.reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bootes_serve_body_memo_misses_total 1\n", "bootes_serve_body_memo_hits_total 1\n"} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("node metrics lack %q: the second request must be answered from the memo", want)
		}
	}
}

// TestOwnerAnswersForwardByKey: through a real cluster, the same text body
// sent three times via a non-owner. The first request misses fleet-wide: the
// entry node makes one read by key and one body forward, and the owner
// parses and plans once. Each repeat is a read by key the owner answers from
// its cache with the same plan, so no body moves: the owner's memo counters
// and the entry node's body-forward counter stay flat.
func TestOwnerAnswersForwardByKey(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 50 * time.Millisecond},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, workloads.ScrambledBlock(workloads.Params{Rows: 48, Cols: 48, Density: 0.3, Seed: 2, Groups: 4}))
	owner := c.Nodes[0].Router().Ring().Owner(keyMust(t, body))
	via := c.Nodes[0].URL
	if via == owner {
		via = c.Nodes[1].URL
	}
	counts := func() map[string]int64 {
		out := make(map[string]int64)
		for _, at := range []string{
			via + " bootes_fleet_forwards_total",
			via + " bootes_fleet_body_forwards_total",
			owner + " bootes_serve_body_memo_misses_total",
			owner + " bootes_serve_body_memo_hits_total",
		} {
			url, name, _ := strings.Cut(at, " ")
			out[at] = scrapeCounter(t, client, url, name)
		}
		return out
	}
	var answers [][]byte
	var afterMiss map[string]int64
	for i := 0; i < 3; i++ {
		resp, err := client.Post(via+"/v1/plan?perm=1", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != owner {
			t.Fatalf("request %d: status %d served by %q, want 200 from owner %s", i, resp.StatusCode, resp.Header.Get(ServedByHeader), owner)
		}
		answers = append(answers, bytes.Replace(data, []byte(`,"cached":true`), nil, 1))
		if i == 0 {
			afterMiss = counts()
			for at, want := range map[string]int64{
				via + " bootes_fleet_forwards_total":           2,
				via + " bootes_fleet_body_forwards_total":      1,
				owner + " bootes_serve_body_memo_misses_total": 1,
				owner + " bootes_serve_body_memo_hits_total":   0,
			} {
				if got := afterMiss[at]; got != want {
					t.Errorf("after the miss: %s = %d, want %d", at, got, want)
				}
			}
		}
	}
	after := counts()
	for _, at := range []string{
		via + " bootes_fleet_body_forwards_total",
		owner + " bootes_serve_body_memo_misses_total",
		owner + " bootes_serve_body_memo_hits_total",
	} {
		if after[at] != afterMiss[at] {
			t.Errorf("%s moved from %d to %d across two repeats: a forwarded hit moved a body", at, afterMiss[at], after[at])
		}
	}
	if got := after[via+" bootes_fleet_forwards_total"]; got != 4 {
		t.Errorf("bootes_fleet_forwards_total on %s = %d, want 4: the miss's two attempts and one read per repeat", via, got)
	}
	if !bytes.Equal(answers[1], answers[0]) || !bytes.Equal(answers[2], answers[0]) {
		t.Errorf("answers differ beyond the cached flag:\n%s\n%s\n%s", answers[0], answers[1], answers[2])
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed the plan %d times, want 1", n)
	}
}

// TestSendBodyLosesToALaterPlan: a hedge replica that lacks the plan and
// asks for the body does not win the race while the slow owner, which holds
// the plan, may still answer: the owner answers within a HedgeAfter of the
// replica's ask, so the client gets the owner's plan, no body is forwarded,
// and the replica's answer counts against nobody's health.
func TestSendBodyLosesToALaterPlan(t *testing.T) {
	asked := make(chan struct{})
	var bodies atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		if r.Header.Get(planserve.KeyHeader) == "" {
			bodies.Add(1)
		}
		select {
		case <-asked:
		case <-r.Context().Done():
			return
		}
		time.Sleep(20 * time.Millisecond) // the replica's answer has landed by now
		fmt.Fprint(w, `{"servedBy":"owner"}`)
	}))
	defer owner.Close()
	var once sync.Once
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		if !askForBody(w, r) {
			bodies.Add(1)
		}
		once.Do(func() { close(asked) })
	}))
	defer replica.Close()

	h := newRouterHarness(t, Config{Replicas: 3, HedgeAfter: 100 * time.Millisecond}, owner, replica)
	body := bodyOwnedBy(t, h.rt, 2, owner.URL, replica.URL)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, _ := postPlan(t, client, h.front.URL, body)
	if got := resp.Header.Get(ServedByHeader); resp.StatusCode != http.StatusOK || got != owner.URL {
		t.Fatalf("status %d served by %q, want the owner's plan from %s", resp.StatusCode, got, owner.URL)
	}
	if n := bodies.Load(); n != 0 || h.rt.bodyForwards.Value() != 0 {
		t.Errorf("%d bodies reached the peers (%d body forwards counted), want none", n, h.rt.bodyForwards.Value())
	}
	if h.rt.hedges.Value() != 1 || h.rt.hedgeWins.Value() != 0 {
		t.Errorf("hedges %d, hedge wins %d; want the one hedge fired and lost", h.rt.hedges.Value(), h.rt.hedgeWins.Value())
	}
	for _, pv := range h.rt.Peers() {
		if !pv.Up || pv.ConsecFails != 0 {
			t.Errorf("peer %s after the race: %+v, want up with no failures", pv.URL, pv)
		}
	}
}

// TestHungOwnerLetsTheHedgeHaveTheBody: the owner hangs and the hedge
// replica lacks the plan. The replica's ask for the body waits one
// HedgeAfter for the owner, not for the owner's answer: the replica is then
// sent the body and answers within a few HedgeAfter.
func TestHungOwnerLetsTheHedgeHaveTheBody(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || askForBody(w, r) {
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"servedBy":"replica"}`)
	}))
	defer replica.Close()

	const hedgeAfter = 20 * time.Millisecond
	h := newRouterHarness(t, Config{Replicas: 3, HedgeAfter: hedgeAfter}, hung, replica)
	body := bodyOwnedBy(t, h.rt, 2, hung.URL, replica.URL)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	start := time.Now()
	resp, err := client.Post(h.front.URL+"/v1/plan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if got := resp.Header.Get(ServedByHeader); got != replica.URL || !bytes.Contains(data, []byte("replica")) {
		t.Fatalf("status %d served by %q: %q, want the replica's answer", resp.StatusCode, got, data)
	}
	if took > 50*hedgeAfter {
		t.Errorf("answered after %v, want within a few HedgeAfter (%v)", took, hedgeAfter)
	}
	if n := h.rt.bodyForwards.Value(); n != 1 {
		t.Errorf("body forwards = %d, want the replica's 1", n)
	}
	if h.rt.hedges.Value() != 1 || h.rt.hedgeWins.Value() != 1 {
		t.Errorf("hedges %d, hedge wins %d; want the one hedge fired and won", h.rt.hedges.Value(), h.rt.hedgeWins.Value())
	}
}

// TestForwardOutOfTimeServedDegradedByOwner: a non-owner forwards a request
// whose X-Deadline passes while the owner plans it under the production
// pipeline. The owner answers 200 with the degraded identity plan, so the
// forward is a success: no forward failure is counted against a healthy
// owner, and the entry node runs no pipeline of its own.
func TestForwardOutOfTimeServedDegradedByOwner(t *testing.T) {
	var computes atomic.Int64
	pipeline := planserve.PipelinePlan(bootes.Options{Seed: 1})
	c, err := LaunchCluster(3, NodeConfig{
		Serve: planserve.Config{Plan: func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
			computes.Add(1)
			return pipeline(ctx, m, attempt)
		}},
		CacheDir: t.TempDir(),
		Fleet:    Config{ProbeInterval: 50 * time.Millisecond, HedgeAfter: -1},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 1))
	owner := c.Nodes[0].Router().Ring().Owner(keyMust(t, body))
	via := c.Nodes[0].URL
	if via == owner {
		via = c.Nodes[1].URL
	}
	// A stalled worker parks until its context is done, so the owner's plan
	// outlives the request's deadline on any machine.
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.WorkerStall, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, via+"/v1/plan?perm=1", bytes.NewReader(body))
	req.Header.Set("X-Deadline", "50ms")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != owner {
		t.Fatalf("status %d served by %q: %s; want 200 from owner %s", resp.StatusCode, resp.Header.Get(ServedByHeader), data, owner)
	}
	var pr planserve.PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Reordered || !sparse.Permutation(pr.Perm).IsIdentity() ||
		!strings.Contains(pr.DegradedReason, "wall-clock budget exhausted") {
		t.Fatalf("got %s; want the identity plan degraded by the deadline", data)
	}
	if n := scrapeCounter(t, client, via, "bootes_fleet_forward_failures_total"); n != 0 {
		t.Errorf("entry node counted %d forward failures against a healthy owner", n)
	}
	// The owner served a computed plan, so a single compute fleet-wide is
	// the owner's: the entry node did not plan again.
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet ran the pipeline %d times, want 1 (the owner's)", n)
	}
}

// scrapeCounter reads one unlabelled counter from a node's /metrics.
func scrapeCounter(t *testing.T, client *http.Client, url, name string) int64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("%s/metrics has no %s", url, name)
	return 0
}

// TestBodyOverUploadLimitIs413: a fleet node refuses a client's body over
// its upload limit with a 413 naming the limit, declared or not, before
// anything is parsed or forwarded.
func TestBodyOverUploadLimitIs413(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes), MaxUploadBytes: 512},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	a, b := c.Nodes[0], c.Nodes[1]
	body := bodyOwnedBy(t, a.Router(), 1, b.URL)
	if len(body) <= 512 {
		t.Fatalf("test body only %d bytes; raise the matrix size", len(body))
	}
	for _, declared := range []bool{true, false} {
		var rd io.Reader = bytes.NewReader(body)
		if !declared {
			rd = io.MultiReader(rd) // hides the length: sent chunked
		}
		resp, err := client.Post(a.URL+"/v1/plan", "text/plain", rd)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "512-byte upload limit") {
			t.Errorf("declared length %v: status %d (%s), want 413 naming the upload limit", declared, resp.StatusCode, data)
		}
	}
	if n := scrapeCounter(t, client, a.URL, "bootes_serve_body_memo_misses_total"); n != 0 {
		t.Errorf("over-limit bodies were parsed %d times", n)
	}
	if n := scrapeCounter(t, client, a.URL, "bootes_fleet_forwards_total"); n != 0 {
		t.Errorf("over-limit bodies were forwarded %d times", n)
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("pipeline ran %d times on rejected uploads", n)
	}
}

// TestTenantQuotaChargedWhereServed: a node forwards a tenant's requests for
// a key it does not own without taking the tenant's tokens; the owner takes
// them, and its 429 reaches the client. The forwarding node still admits the
// tenant for a key it owns.
func TestTenantQuotaChargedWhereServed(t *testing.T) {
	c, err := LaunchCluster(2, NodeConfig{
		Serve: planserve.Config{
			Plan:    countingPlan(new(atomic.Int64)),
			Tenants: planserve.TenantConfig{Rate: 0.001, Burst: 2},
		},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	a, b := c.Nodes[0], c.Nodes[1]
	theirs, ours := bodyOwnedBy(t, a.Router(), 1, b.URL), bodyOwnedBy(t, a.Router(), 1, a.URL)
	post := func(body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, a.URL+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", "t")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post(theirs); resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != b.URL {
			t.Fatalf("request %d: status %d served by %q, want 200 from the owner %s",
				i, resp.StatusCode, resp.Header.Get(ServedByHeader), b.URL)
		}
	}
	resp := post(theirs)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" || resp.Header.Get(ServedByHeader) != b.URL {
		t.Fatalf("third request: status %d, Retry-After %q, served by %q; want the owner's 429",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get(ServedByHeader))
	}
	if resp := post(ours); resp.StatusCode != http.StatusOK {
		t.Errorf("request for the forwarding node's own key: status %d, want 200 (forwards took none of its tokens)", resp.StatusCode)
	}
}

// TestDrainingNodeStillForwards: a draining node refuses to serve a client
// request itself, but still forwards one whose key another node owns.
func TestDrainingNodeStillForwards(t *testing.T) {
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	a, b := c.Nodes[0], c.Nodes[1]
	theirs, ours := bodyOwnedBy(t, a.Router(), 1, b.URL), bodyOwnedBy(t, a.Router(), 1, a.URL)
	if err := a.Server().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postPlan(t, client, a.URL, theirs); resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != b.URL {
		t.Errorf("draining node, owner's key: status %d served by %q, want 200 from %s",
			resp.StatusCode, resp.Header.Get(ServedByHeader), b.URL)
	}
	if resp, _ := postPlan(t, client, a.URL, ours); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining node, its own key: status %d, want 503", resp.StatusCode)
	}
}

// TestBodyParsedOncePerNode: a text body sent to its owner once and then
// twice via a non-owner is parsed once on each node that reads it, and the
// owner reads it once: the owner answers the forwards by key, so the
// non-owner forwards no body and the owner's memo sees neither forward.
func TestBodyParsedOncePerNode(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	a, b := c.Nodes[0], c.Nodes[1]
	body := bodyOwnedBy(t, a.Router(), 1, b.URL)
	for i, url := range []string{b.URL, a.URL, a.URL} {
		if resp, _ := postPlan(t, client, url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d via %s: status %d", i, url, resp.StatusCode)
		}
	}
	for _, tc := range []struct {
		url          string
		misses, hits int64
	}{{b.URL, 1, 0}, {a.URL, 1, 1}} {
		if got := scrapeCounter(t, client, tc.url, "bootes_serve_body_memo_misses_total"); got != tc.misses {
			t.Errorf("%s parsed the body %d times, want %d", tc.url, got, tc.misses)
		}
		if got := scrapeCounter(t, client, tc.url, "bootes_serve_body_memo_hits_total"); got != tc.hits {
			t.Errorf("bootes_serve_body_memo_hits_total on %s = %d, want %d", tc.url, got, tc.hits)
		}
	}
	if got := scrapeCounter(t, client, a.URL, "bootes_fleet_body_forwards_total"); got != 0 {
		t.Errorf("the non-owner forwarded the body %d times, want 0", got)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed the plan %d times, want 1", n)
	}
}

// TestUnparseableBodyParsedOnce: a fleet node answers a body that is not a
// matrix with a 400 after one parse attempt. Every parse on a node is a body
// memo miss, so the node's misses of any memo count its parses.
func TestUnparseableBodyParsedOnce(t *testing.T) {
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		CacheDir: t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	url := c.Nodes[0].URL
	if resp, _ := postPlan(t, client, url, []byte("not a matrix")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := scrapeSuffix(t, client, url, "_body_memo_misses_total"); got != 1 {
		t.Errorf("the node parsed the body %d times, want 1", got)
	}
}

// scrapeSuffix sums the unlabelled series of a node's /metrics whose name
// ends in suffix.
func scrapeSuffix(t *testing.T, client *http.Client, url, suffix string) int64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var sum int64
	for _, line := range strings.Split(string(data), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sum += n
	}
	return sum
}
