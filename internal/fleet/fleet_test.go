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

// TestPeerFill: a node that receives a pre-forwarded request (router
// bypassed) for a key a sibling has cached serves it by peer fill, without
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

	// Hit a non-owner directly, marked as already forwarded so its router
	// serves locally; the local miss must fill from the owner's cache.
	req, _ := http.NewRequest(http.MethodPost, otherNode.URL+"/v1/plan", bytes.NewReader(body))
	req.Header.Set(ForwardedHeader, "1")
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

// routerHarness builds a Router whose "remote peers" are stub HTTP servers,
// plus a local stub handler — the unit bench for hedging and breaker tests.
type routerHarness struct {
	rt      *Router
	front   *httptest.Server
	localHi atomic.Int64
}

func newRouterHarness(t *testing.T, cfg Config, backends ...*httptest.Server) *routerHarness {
	t.Helper()
	h := &routerHarness{}
	self := "http://self.invalid"
	peers := []string{self}
	for _, b := range backends {
		peers = append(peers, b.URL)
	}
	cfg.Self = self
	cfg.Peers = peers
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.rt = rt
	local := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.localHi.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"servedBy":"local"}`)
	})
	h.front = httptest.NewServer(rt.Handler(local))
	t.Cleanup(h.front.Close)
	return h
}

// bodyOwnedBy searches seeds for a test matrix whose key has the wanted
// replica preference order.
func bodyOwnedBy(t *testing.T, rt *Router, n int, want ...string) []byte {
	t.Helper()
	return drawOwnedBy(t, rt, func(seed int64) *sparse.CSR { return testMatrix(t, seed) }, n, want...)
}

// drawOwnedBy searches seeds of draw for a matrix whose key has the wanted
// replica preference order, and returns its Matrix Market body.
func drawOwnedBy(t *testing.T, rt *Router, draw func(seed int64) *sparse.CSR, n int, want ...string) []byte {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		b := mmBody(t, draw(seed))
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
		DownAfter:  100,
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
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("local")) {
		t.Fatalf("status %d body %q, want a local response", resp.StatusCode, data)
	}
	if n := h.rt.localFallbacks.Value(); n != 1 {
		t.Errorf("local fallbacks = %d, want 1", n)
	}
	if n := h.localHi.Load(); n != 1 {
		t.Errorf("local handler hits = %d, want 1", n)
	}
}

// TestPerPeerBreakerStopsHammering: a persistently failing peer trips its
// breaker; subsequent requests stop reaching it until the cooldown.
func TestPerPeerBreakerStopsHammering(t *testing.T) {
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
		DownAfter:  100, // keep health out of the way; the breaker is under test
		Breaker:    planserve.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
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
		t.Errorf("failing peer was hit %d times, want exactly FailureThreshold=3 before the breaker opened", n)
	}
	if n := h.localHi.Load(); n != 6 {
		t.Errorf("local handler hits = %d, want 6", n)
	}
}

// TestRedirectMode: route=redirect answers 307 with the owner's URL instead
// of proxying, preserving the request URI.
func TestRedirectMode(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	h := newRouterHarness(t, Config{Replicas: 1}, backend)
	body := bodyOwnedBy(t, h.rt, 1, backend.URL)

	client := &http.Client{
		Timeout:       10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	defer client.CloseIdleConnections()
	resp, err := client.Post(h.front.URL+"/v1/plan?route=redirect&perm=1", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", resp.StatusCode)
	}
	want := backend.URL + "/v1/plan?route=redirect&perm=1"
	if got := resp.Header.Get("Location"); got != want {
		t.Errorf("Location = %q, want %q", got, want)
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
	if e, ok := h.rt.Fill(ctx, "somekey"); !ok || e == nil || e.Key != "somekey" {
		t.Fatalf("Fill = (%v, %v), want a matching entry", e, ok)
	}
	wrongKey.Store(true)
	if _, ok := h.rt.Fill(ctx, "otherkey"); ok {
		t.Error("Fill accepted an entry whose embedded key mismatched")
	}

	// Down peer: no fill, no request.
	p := h.rt.peers[backend.URL]
	p.mu.Lock()
	p.isUp = false
	p.mu.Unlock()
	if _, ok := h.rt.Fill(ctx, "somekey"); ok {
		t.Error("Fill consulted a down peer")
	}
}

// TestPeersEndpoint: the /v1/peers view lists every fleet member with self
// marked and health visible.
func TestPeersEndpoint(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	h := newRouterHarness(t, Config{Replicas: 2}, backend)

	resp, err := http.Get(h.front.URL + "/v1/peers")
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
	if view.Self != "http://self.invalid" {
		t.Errorf("self = %q", view.Self)
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
			if pv.URL != backend.URL {
				t.Errorf("peer URL %q, want %q", pv.URL, backend.URL)
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

// TestForwardCarriesBCSR: a Matrix Market request to a non-owner reaches the
// owner, and the hedge target, as the same BCSR bytes, which decode to the
// matrix the client sent.
func TestForwardCarriesBCSR(t *testing.T) {
	type arrival struct {
		contentType string
		body        []byte
	}
	var (
		mu       sync.Mutex
		arrivals []arrival
	)
	release := make(chan struct{})
	peer := func(stall bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				return
			}
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			arrivals = append(arrivals, arrival{r.Header.Get("Content-Type"), b})
			mu.Unlock()
			if stall {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			fmt.Fprint(w, `{}`)
		}))
	}
	owner, hedge := peer(true), peer(false)
	defer owner.Close()
	defer hedge.Close()
	defer close(release)

	h := newRouterHarness(t, Config{Replicas: 3, HedgeAfter: 20 * time.Millisecond}, owner, hedge)
	// Dense enough that BCSR is clearly the smaller encoding: at the test
	// matrix's four entries a row, it can go either way.
	dense := func(seed int64) *sparse.CSR {
		return workloads.ScrambledBlock(workloads.Params{Rows: 48, Cols: 48, Density: 0.3, Seed: seed, Groups: 4})
	}
	body := drawOwnedBy(t, h.rt, dense, 2, owner.URL, hedge.URL)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(h.front.URL+"/v1/plan", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(arrivals) == 2
	}, "owner and hedge did not both receive the forward")

	want, err := sparse.ReadMatrixMarket(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, a := range arrivals {
		if a.contentType != "application/octet-stream" {
			t.Errorf("forward %d: Content-Type %q, want application/octet-stream", i, a.contentType)
		}
		got, err := sparse.ReadBinary(bytes.NewReader(a.body))
		if err != nil {
			t.Fatalf("forward %d is not BCSR: %v", i, err)
		}
		if !sparse.Equal(got, want) {
			t.Errorf("forward %d decodes to a different matrix", i)
		}
		if len(a.body) >= len(body) {
			t.Errorf("forward %d carries %d bytes for a %d-byte text body", i, len(a.body), len(body))
		}
	}
	if !bytes.Equal(arrivals[0].body, arrivals[1].body) {
		t.Error("the hedge carried different bytes than the primary forward")
	}
}

// TestForwardKeepsTextWhenBCSRIsLarger: a body whose BCSR encoding would be
// larger, here 2^20 rows with one entry, is forwarded as the client sent it.
func TestForwardKeepsTextWhenBCSRIsLarger(t *testing.T) {
	got := make(chan []byte, 1)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		b, _ := io.ReadAll(r.Body)
		got <- b
		fmt.Fprint(w, `{}`)
	}))
	defer owner.Close()
	h := newRouterHarness(t, Config{Replicas: 1}, owner)

	var body []byte
	for i := 1; body == nil; i++ {
		b := []byte(fmt.Sprintf("%%%%MatrixMarket matrix coordinate pattern general\n1048576 1048576 1\n%d %d\n", i, i))
		if h.rt.Ring().Owner(keyMust(t, b)) == owner.URL {
			body = b
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(h.front.URL+"/v1/plan", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if b := <-got; !bytes.Equal(b, body) {
		t.Errorf("owner received %d bytes %.40q, want the %d-byte text body verbatim", len(b), b, len(body))
	}
}

// TestForwardedAnswerMatchesOwnerDirect: through a real cluster, a Matrix
// Market request forwarded as BCSR gets the same bytes back (key, perm and
// all) as the same request sent to the owner directly.
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

// TestRoutedBodyOverServerLimitIs413: the router buffers and parses bodies
// up to its own MaxBodyBytes; when that exceeds the local server's upload
// limit, a request served here is still refused with 413.
func TestRoutedBodyOverServerLimitIs413(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer stub.Close()
	const self = "http://self.invalid"
	rt, err := New(Config{Self: self, Peers: []string{self, stub.URL}, Replicas: 1, MaxBodyBytes: 1 << 20, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	srv, err := planserve.New(planserve.Config{Plan: countingPlan(&computes), MaxUploadBytes: 512, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(srv.Handler()))
	defer front.Close()

	body := bodyOwnedBy(t, rt, 1, self)
	if len(body) <= 512 {
		t.Fatalf("test body only %d bytes; raise the matrix size", len(body))
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(front.URL+"/v1/plan", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, data)
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("pipeline ran %d times on a rejected upload", n)
	}
}

// TestForwardAfterMemoHitCarriesClientBytes: a router forwards a body it
// parsed as BCSR, but once its memo knows the body it forwards the client's
// bytes verbatim, to the owner and to the hedge alike.
func TestForwardAfterMemoHitCarriesClientBytes(t *testing.T) {
	type arrival struct {
		contentType string
		body        []byte
	}
	var (
		mu       sync.Mutex
		arrivals []arrival
	)
	peer := func(stall bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				return
			}
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			arrivals = append(arrivals, arrival{r.Header.Get("Content-Type"), b})
			mu.Unlock()
			if stall {
				<-r.Context().Done() // lose every race to the hedge
				return
			}
			fmt.Fprint(w, `{}`)
		}))
	}
	owner, hedge := peer(true), peer(false)
	defer owner.Close()
	defer hedge.Close()
	h := newRouterHarness(t, Config{Replicas: 3, HedgeAfter: 20 * time.Millisecond}, owner, hedge)
	dense := func(seed int64) *sparse.CSR {
		return workloads.ScrambledBlock(workloads.Params{Rows: 48, Cols: 48, Density: 0.3, Seed: seed, Groups: 4})
	}
	body := drawOwnedBy(t, h.rt, dense, 2, owner.URL, hedge.URL)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		resp, err := client.Post(h.front.URL+"/v1/plan", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(arrivals) == 2*(i+1)
		}, "owner and hedge did not both receive the forward")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, a := range arrivals {
		verbatim := a.contentType == "text/plain" && bytes.Equal(a.body, body)
		if first := i < 2; first == verbatim || (first && !bytes.HasPrefix(a.body, []byte("BCSR"))) {
			t.Errorf("forward %d (request %d): Content-Type %q, %d bytes; want BCSR on the first sighting and the client's bytes after",
				i, i/2+1, a.contentType, len(a.body))
		}
	}
}

// TestOwnerAnswersForwardFromItsMemo: through a real cluster, the same text
// body sent three times via a non-owner is parsed once by that router and
// twice by the owner (the BCSR forward, then the first verbatim one), and the
// third forward is answered from the owner's memo with the same plan.
func TestOwnerAnswersForwardFromItsMemo(t *testing.T) {
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
	var answers [][]byte
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
	}
	for at, want := range map[string]int64{
		via + " bootes_fleet_body_memo_misses_total":   1,
		via + " bootes_fleet_body_memo_hits_total":     2,
		owner + " bootes_serve_body_memo_misses_total": 2,
		owner + " bootes_serve_body_memo_hits_total":   1,
	} {
		url, name, _ := strings.Cut(at, " ")
		if got := scrapeCounter(t, client, url, name); got != want {
			t.Errorf("%s on %s = %d, want %d", name, url, got, want)
		}
	}
	if !bytes.Equal(answers[1], answers[0]) || !bytes.Equal(answers[2], answers[0]) {
		t.Errorf("answers differ beyond the cached flag:\n%s\n%s\n%s", answers[0], answers[1], answers[2])
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed the plan %d times, want 1", n)
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

// TestBodyOverRoutingLimitIs413: a body over the router's own limit is
// refused with its 413, declared or not, before anything is parsed or served.
func TestBodyOverRoutingLimitIs413(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer stub.Close()
	h := newRouterHarness(t, Config{MaxBodyBytes: 512}, stub)
	body := mmBody(t, testMatrix(t, 1))
	if len(body) <= 512 {
		t.Fatalf("test body only %d bytes; raise the matrix size", len(body))
	}
	for _, declared := range []bool{true, false} {
		var rd io.Reader = bytes.NewReader(body)
		if !declared {
			rd = io.MultiReader(rd) // hides the length: sent chunked
		}
		resp, err := http.Post(h.front.URL+"/v1/plan", "text/plain", rd)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "512-byte routing limit") {
			t.Errorf("declared length %v: status %d (%s), want 413 naming the routing limit", declared, resp.StatusCode, data)
		}
	}
	if n := h.localHi.Load(); n != 0 {
		t.Errorf("local handler served %d over-limit requests", n)
	}
}
