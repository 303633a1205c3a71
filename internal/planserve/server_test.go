package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootes"
	"bootes/internal/faultinject"
	"bootes/internal/leakcheck"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// countingPlanner is a stub pipeline that counts executions per key and can
// block on a gate to force request overlap.
type countingPlanner struct {
	mu    sync.Mutex
	runs  map[string]int
	gate  chan struct{} // non-nil: every run waits here
	delay time.Duration
	make  func(m *sparse.CSR, attempt int) (*reorder.Result, error)
}

func (p *countingPlanner) fn() PlanFunc {
	return func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		key := plancache.KeyCSR(m)
		p.mu.Lock()
		if p.runs == nil {
			p.runs = make(map[string]int)
		}
		p.runs[key]++
		p.mu.Unlock()
		if p.gate != nil {
			select {
			case <-p.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if p.delay > 0 {
			select {
			case <-time.After(p.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if p.make != nil {
			return p.make(m, attempt)
		}
		return healthyResult(m), nil
	}
}

func (p *countingPlanner) runsFor(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs[key]
}

func (p *countingPlanner) totalRuns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.runs {
		n += c
	}
	return n
}

func healthyResult(m *sparse.CSR) *reorder.Result {
	perm := make(sparse.Permutation, m.Rows)
	for i := range perm {
		perm[i] = int32(m.Rows - 1 - i)
	}
	return &reorder.Result{
		Perm:      perm,
		Reordered: true,
		Extra:     map[string]float64{"k": 8},
	}
}

func degradedResult(m *sparse.CSR, reason string) *reorder.Result {
	return &reorder.Result{
		Perm:           sparse.IdentityPerm(m.Rows),
		Degraded:       true,
		DegradedReason: reason,
	}
}

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

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postPlan(t testing.TB, url string, body []byte, deadline string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if deadline != "" {
		req.Header.Set("X-Deadline", deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func TestPlanEndToEnd(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	m := testMatrix(t, 1)
	resp, body := postPlan(t, ts.URL, mmBody(t, m), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	key := plancache.KeyCSR(m)
	if !strings.Contains(body, key) {
		t.Fatalf("response missing key %s: %s", key, body)
	}
	if !strings.Contains(body, `"reordered":true`) {
		t.Fatalf("response: %s", body)
	}
	if strings.Contains(body, `"perm"`) {
		t.Fatal("perm included without ?perm=1")
	}
	// Health endpoints.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/statsz": 200} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, r.StatusCode, want)
		}
	}
}

func TestPermOptIn(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	body := mmBody(t, testMatrix(t, 1))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan?perm=1", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), `"perm":[`) {
		t.Fatalf("perm missing with ?perm=1: %s", b)
	}
}

func TestBadBodyRejected(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, _ := postPlan(t, ts.URL, []byte("not a matrix"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if p.totalRuns() != 0 {
		t.Fatal("pipeline ran on a garbage body")
	}
}

// TestMalformedBodyErrorIsBounded: the 400 for a malformed megabyte body
// quotes a bounded part of it, not the body several times over.
func TestMalformedBodyErrorIsBounded(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, body := postPlan(t, ts.URL, bytes.Repeat([]byte{0x01}, 1<<20), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if len(body) >= 1<<10 {
		t.Fatalf("400 body is %d bytes for a 1 MiB upload: %.120s…", len(body), body)
	}
}

// TestLeaderDoubleCheckAnswersAsCacheHit: a request that missed the cache,
// and found the plan cached by the time it led a flight, is answered as a
// cache hit is: cached, with the time the plan took when it was computed.
func TestLeaderDoubleCheckAnswersAsCacheHit(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	planGate := make(chan struct{})
	p := &countingPlanner{gate: planGate, make: func(m *sparse.CSR, _ int) (*reorder.Result, error) {
		res := healthyResult(m)
		res.PreprocessTime = 1500 * time.Millisecond
		return res, nil
	}}
	// The first lookup (request A's) misses at once; the second (request
	// B's) holds B between its cache miss and its flight until A is done.
	var fills sync.Mutex
	nFills := 0
	fillEntered, fillGate := make(chan struct{}), make(chan struct{})
	peerFill := func(ctx context.Context, key string) (*plancache.Entry, bool) {
		fills.Lock()
		nFills++
		n := nFills
		fills.Unlock()
		if n == 2 {
			close(fillEntered)
			<-fillGate
		}
		return nil, false
	}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, PeerFill: peerFill})
	body := mmBody(t, testMatrix(t, 1))

	answers := make(chan string, 2)
	post := func() {
		resp, b := postPlan(t, ts.URL, body, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", resp.StatusCode, b)
		}
		answers <- b
	}
	go post() // A: misses, leads, plans once planGate opens
	waitUntil(t, func() bool { return p.totalRuns() == 1 })
	go post() // B: misses, then waits in its peer fill
	<-fillEntered
	close(planGate)
	a := <-answers
	close(fillGate)
	b := <-answers

	var ra, rb PlanResponse
	if err := json.Unmarshal([]byte(a), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Cached || ra.PreprocessSeconds != 1.5 {
		t.Errorf("A = %s, want a computed plan that took 1.5s", a)
	}
	if !rb.Cached || rb.Coalesced || rb.PreprocessSeconds != 1.5 || rb.Key != ra.Key {
		t.Errorf("B = %s, want A's plan answered as a cache hit, with its 1.5s", b)
	}
	if n := p.totalRuns(); n != 1 {
		t.Errorf("pipeline ran %d times, want 1", n)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("cache counted %d hits, want 1 (B's double-check)", st.Hits)
	}
}

func TestBadDeadlineRejected(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "soon")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestOverloadShedsFast saturates the in-flight semaphore and the wait
// queue, then asserts excess requests are rejected 429 immediately (the shed
// path is a non-blocking select — no sleeps, no I/O) with a Retry-After.
func TestOverloadShedsFast(t *testing.T) {
	leakcheck.Goroutines(t)
	gate := make(chan struct{})
	p := &countingPlanner{gate: gate}
	s, ts := newTestServer(t, Config{Plan: p.fn(), MaxInFlight: 1, MaxQueue: 1})
	leakcheck.Zero(t, "planserve slots", func() int64 { return int64(s.SlotsInUse()) })

	// Distinct matrices so singleflight cannot coalesce them.
	launch := func(i int, out chan<- int) {
		resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, int64(i))), "")
		out <- resp.StatusCode
	}
	running := make(chan int, 1)
	go launch(1, running) // occupies the only slot
	waitUntil(t, func() bool { return s.running.Value() == 1 })
	queuedc := make(chan int, 1)
	go launch(2, queuedc) // occupies the only queue seat
	waitUntil(t, func() bool { return s.queued.Value() == 1 })

	// Saturated: these must shed, and fast.
	for i := 3; i <= 5; i++ {
		start := time.Now()
		resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, int64(i))), "")
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d (%s), want 429", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if elapsed > 500*time.Millisecond {
			t.Fatalf("shed took %v; the reject path must not block", elapsed)
		}
	}
	if got := s.Stats().Shed; got != 3 {
		t.Fatalf("Shed = %d, want 3", got)
	}

	close(gate) // release the blocked pipeline; queued request completes too
	if st := <-running; st != http.StatusOK {
		t.Fatalf("running request status %d", st)
	}
	if st := <-queuedc; st != http.StatusOK {
		t.Fatalf("queued request status %d", st)
	}
}

func waitUntil(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingExactlyOnce fires 100 concurrent requests — identical and
// distinct, with mixed deadlines — through a cached server and asserts
// exactly one pipeline execution per distinct key and an intact cache
// afterwards. Run under -race by `make race-serve`.
func TestCoalescingExactlyOnce(t *testing.T) {
	leakcheck.Goroutines(t)
	gate := make(chan struct{})
	p := &countingPlanner{gate: gate}
	dir := t.TempDir()
	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, MaxInFlight: 8, MaxQueue: 8})
	leakcheck.Zero(t, "planserve slots", func() int64 { return int64(s.SlotsInUse()) })

	const distinct = 6
	matrices := make([][]byte, distinct)
	keys := make([]string, distinct)
	for i := range matrices {
		m := testMatrix(t, int64(i+1))
		matrices[i] = mmBody(t, m)
		keys[i] = plancache.KeyCSR(m)
	}

	var wg sync.WaitGroup
	codes := make([]int, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed deadlines: all generous enough to survive the gate wait,
			// but spread so followers time out at different moments in the
			// -race schedule.
			deadline := fmt.Sprintf("%dms", 2000+50*(i%8))
			resp, _ := postPlan(t, ts.URL, matrices[i%distinct], deadline)
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until every key's leader is inside the pipeline, then release.
	waitUntil(t, func() bool { return p.totalRuns() == distinct })
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	for _, key := range keys {
		if n := p.runsFor(key); n != 1 {
			t.Fatalf("key %s ran %d times, want exactly once", key[:12], n)
		}
	}
	// Every non-leader was answered without a pipeline run: coalesced onto a
	// live flight, or (if it arrived after the flight finished) from the cache.
	if st := s.Stats(); st.Coalesced+st.Cache.Hits != 100-distinct {
		t.Fatalf("Coalesced=%d + cache Hits=%d, want %d combined",
			st.Coalesced, st.Cache.Hits, 100-distinct)
	}

	// No torn cache state: a fresh open finds every entry intact.
	reopened, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rst := reopened.Stats()
	if rst.Quarantined != 0 {
		t.Fatalf("%d cache entries corrupt after the storm", rst.Quarantined)
	}
	if rst.Entries != distinct {
		t.Fatalf("cache holds %d entries, want %d", rst.Entries, distinct)
	}
}

func TestCacheHitSkipsPipeline(t *testing.T) {
	p := &countingPlanner{}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	body := mmBody(t, testMatrix(t, 1))
	if resp, _ := postPlan(t, ts.URL, body, ""); resp.StatusCode != 200 {
		t.Fatal("first request failed")
	}
	resp, rbody := postPlan(t, ts.URL, body, "")
	if resp.StatusCode != 200 || !strings.Contains(rbody, `"cached":true`) {
		t.Fatalf("second request not served from cache: %d %s", resp.StatusCode, rbody)
	}
	if p.totalRuns() != 1 {
		t.Fatalf("pipeline ran %d times, want 1", p.totalRuns())
	}
}

func TestDegradedPlansNotCached(t *testing.T) {
	p := &countingPlanner{make: func(m *sparse.CSR, _ int) (*reorder.Result, error) {
		return degradedResult(m, "requested: wall-clock budget exhausted; fell back to identity"), nil
	}}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, MaxRetries: 2})
	body := mmBody(t, testMatrix(t, 1))
	resp, rbody := postPlan(t, ts.URL, body, "")
	if resp.StatusCode != 200 || !strings.Contains(rbody, `"degraded":true`) {
		t.Fatalf("%d %s", resp.StatusCode, rbody)
	}
	if resp.Header.Get("X-Bootes-Degraded") != "true" {
		t.Fatal("degraded plan not marked in headers")
	}
	if cache.Len() != 0 {
		t.Fatal("degraded plan was cached")
	}
	if p.totalRuns() != 1 {
		t.Fatalf("budget degradation retried (%d runs); only transient rungs retry", p.totalRuns())
	}
}

// TestRetryRecoversTransientDegradation: the first attempt degrades with a
// transient reason, the retry succeeds; the served plan is healthy and the
// retry counter moves.
func TestRetryRecoversTransientDegradation(t *testing.T) {
	p := &countingPlanner{}
	p.make = func(m *sparse.CSR, attempt int) (*reorder.Result, error) {
		if attempt == 0 {
			return degradedResult(m, "requested: eigensolver did not converge"), nil
		}
		return healthyResult(m), nil
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), MaxRetries: 2})
	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "")
	if resp.StatusCode != 200 {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	if strings.Contains(body, `"degraded":true`) {
		t.Fatalf("retry did not recover: %s", body)
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
	if p.totalRuns() != 2 {
		t.Fatalf("runs = %d, want 2", p.totalRuns())
	}
}

// TestRetryStopsAtDeadline: a transiently degraded plan that comes back
// after the request's deadline is served as it is, neither re-planned nor
// turned into a 504: past the deadline, the plan in hand beats an error.
func TestRetryStopsAtDeadline(t *testing.T) {
	var runs atomic.Int64
	plan := func(ctx context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
		runs.Add(1)
		<-ctx.Done() // the pipeline overruns the request's deadline
		return degradedResult(m, "requested: eigensolver did not converge; fell back to identity"), nil
	}
	_, ts := newTestServer(t, Config{Plan: plan, MaxRetries: 2})
	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "50ms")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"degraded":true`) {
		t.Fatalf("%d %s; want 200 with the degraded plan", resp.StatusCode, body)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1: no retry after the deadline", n)
	}
}

func TestDeadlinePropagatesToPipeline(t *testing.T) {
	sawDeadline := make(chan time.Duration, 1)
	plan := func(ctx context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			t.Error("pipeline context has no deadline")
		}
		sawDeadline <- time.Until(dl)
		return healthyResult(m), nil
	}
	_, ts := newTestServer(t, Config{Plan: plan, DefaultDeadline: time.Hour})
	resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "250ms")
	if resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
	if d := <-sawDeadline; d > 250*time.Millisecond {
		t.Fatalf("X-Deadline not applied: %v remaining", d)
	}
}

func TestSlowPipelineHitsGatewayTimeout(t *testing.T) {
	p := &countingPlanner{delay: 10 * time.Second}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "50ms")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// TestFollowerOutlivesLeaderClock: a follower with time left that joined a
// flight is not answered with what its leader's clock decided. When the
// leader's deadline degrades its plan to the identity, or the leader's
// client hangs up, the follower goes round again, plans as the next
// flight's leader and gets a healthy plan of its own.
func TestFollowerOutlivesLeaderClock(t *testing.T) {
	for _, tc := range []struct {
		name, leaderDeadline string
		hangUp               bool
	}{
		{"leader deadline degrades", "300ms", false},
		{"leader client hangs up", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int64
			started := make(chan struct{})
			// The first run behaves like PipelinePlan when its context ends:
			// a deadline degrades to the identity, a cancellation errors.
			// Later runs plan at once.
			plan := func(ctx context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
				if runs.Add(1) > 1 {
					return healthyResult(m), nil
				}
				close(started)
				<-ctx.Done()
				if errors.Is(ctx.Err(), context.Canceled) {
					return nil, ctx.Err()
				}
				return degradedResult(m, "wall-clock budget exhausted; fell back to identity"), nil
			}
			s, ts := newTestServer(t, Config{Plan: plan})
			body := mmBody(t, testMatrix(t, 1))

			leaderCtx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
				if tc.leaderDeadline != "" {
					req.Header.Set("X-Deadline", tc.leaderDeadline)
				}
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			<-started

			type answer struct {
				code int
				body string
			}
			follower := make(chan answer, 1)
			go func() {
				resp, rbody := postPlan(t, ts.URL, body, "10s")
				follower <- answer{resp.StatusCode, rbody}
			}()
			if tc.hangUp {
				time.Sleep(100 * time.Millisecond) // let the follower join
				hangUp()
			}
			got := <-follower
			<-leaderDone

			var pr PlanResponse
			if err := json.Unmarshal([]byte(got.body), &pr); got.code != http.StatusOK || err != nil {
				t.Fatalf("follower: status %d %s; want 200 with a plan", got.code, got.body)
			}
			if pr.Degraded || pr.Coalesced || !pr.Reordered {
				t.Fatalf("follower got %s; want its own healthy plan", got.body)
			}
			if n := runs.Load(); n != 2 {
				t.Errorf("pipeline ran %d times, want 2: the leader's and the follower's", n)
			}
			if st := s.Stats(); st.Coalesced != 0 {
				t.Errorf("Coalesced = %d, want 0: the follower was not answered from the leader's flight", st.Coalesced)
			}
		})
	}
}

// TestFollowerOutlivesLeaderSlotWait: a leader whose deadline passes while
// it waits for an admission slot answers 504, but a follower with time left
// goes round again, waits for a slot of its own and gets its plan.
func TestFollowerOutlivesLeaderSlotWait(t *testing.T) {
	gate := make(chan struct{})
	p := &countingPlanner{gate: gate}
	s, ts := newTestServer(t, Config{Plan: p.fn(), MaxInFlight: 1, MaxQueue: 4})

	// A request for another matrix holds the only slot until the gate opens.
	blocker := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 2)), "10s")
		blocker <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return p.totalRuns() == 1 })

	body := mmBody(t, testMatrix(t, 1))
	leader := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, body, "300ms")
		leader <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return s.queued.Value() == 1 })
	follower := make(chan string, 1)
	go func() {
		resp, rbody := postPlan(t, ts.URL, body, "10s")
		follower <- fmt.Sprintf("%d %s", resp.StatusCode, rbody)
	}()
	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504", code)
	}
	close(gate)
	got := <-follower
	if !strings.HasPrefix(got, "200 ") || strings.Contains(got, `"degraded":true`) || strings.Contains(got, `"coalesced":true`) {
		t.Fatalf("follower got %s; want 200 with its own healthy plan", got)
	}
	if code := <-blocker; code != http.StatusOK {
		t.Fatalf("blocker: status %d", code)
	}
}

// armStall makes every spectral pass outlive its deadline: a stalled worker
// parks until its context is done, so the deadline passes mid-plan on any
// machine.
func armStall(t *testing.T) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.WorkerStall, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineMidPlanServesIdentity: under the production pipeline a request
// whose X-Deadline passes mid-plan gets 200 with the identity plan, marked
// degraded and not cached: running out of time degrades a plan, it does not
// fail the request.
func TestDeadlineMidPlanServesIdentity(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: PipelinePlan(bootes.Options{Seed: 1}), Cache: cache})
	armStall(t)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan?perm=1", bytes.NewReader(mmBody(t, testMatrix(t, 1))))
	req.Header.Set("X-Deadline", "50ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d %s; want 200 with the degraded identity plan", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Reordered || !sparse.Permutation(pr.Perm).IsIdentity() ||
		!strings.Contains(pr.DegradedReason, "wall-clock budget exhausted; fell back to identity") {
		t.Fatalf("got %s; want the identity plan degraded by the deadline", body)
	}
	if cache.Len() != 0 {
		t.Error("a plan degraded by the deadline was cached")
	}
}

// TestRunJobDeadlineMidPlanDegrades: a job whose context deadline passes
// mid-plan completes with the degraded identity plan and no error, and
// writes no cache entry.
func TestRunJobDeadlineMidPlanDegrades(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Plan: PipelinePlan(bootes.Options{Seed: 1}), Cache: cache})
	armStall(t)
	m := testMatrix(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, cached, err := s.RunJob(ctx, plancache.KeyCSR(m), m)
	if err != nil || cached {
		t.Fatalf("RunJob = cached %v, err %v; want a computed plan and no error", cached, err)
	}
	if !res.Degraded || !res.Perm.IsIdentity() || !strings.Contains(res.DegradedReason, "wall-clock budget exhausted") {
		t.Fatalf("got degraded=%v identity=%v reason=%q; want the identity plan degraded by the deadline",
			res.Degraded, res.Perm.IsIdentity(), res.DegradedReason)
	}
	if cache.Len() != 0 {
		t.Error("a plan degraded by the deadline was cached")
	}
}

// TestGracefulShutdown: draining flips readyz and new plans to 503, waits
// for the in-flight request, and returns once it completes.
func TestGracefulShutdown(t *testing.T) {
	leakcheck.Goroutines(t)
	gate := make(chan struct{})
	p := &countingPlanner{gate: gate}
	s, ts := newTestServer(t, Config{Plan: p.fn()})
	leakcheck.Zero(t, "planserve slots", func() int64 { return int64(s.SlotsInUse()) })

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "")
		inflight <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return s.running.Value() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitUntil(t, func() bool { return s.draining.Load() })

	if resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 2)), ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: %d, want 503", resp.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: %d, want 503", r.StatusCode)
		}
	}
	if r, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatal("healthz must stay green during drain")
		}
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight plan finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", st)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestShutdownDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	p := &countingPlanner{gate: gate}
	s, ts := newTestServer(t, Config{Plan: p.fn()})
	done := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "")
		done <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return s.running.Value() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown succeeded with a stuck plan in flight")
	}
}

func TestLocalPathsDisabledByDefault(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, err := http.Post(ts.URL+"/v1/plan?path=/etc/hostname", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path request without -allow-path: %d, want 400", resp.StatusCode)
	}
}

func TestTransientClassification(t *testing.T) {
	for reason, want := range map[string]bool{
		"requested: eigensolver did not converge":                                 true,
		"retry-loose: contained panic (core: internal panic)":                     true,
		"wall-clock budget exhausted; fell back to identity":                      false,
		"plan verification failed: perm-invalid; fell back to identity":           true,
		"traffic regression predicted: traffic-regression; fell back to identity": false,
		"": false,
	} {
		if got := transientDegradation(reason); got != want {
			t.Errorf("transientDegradation(%q) = %v, want %v", reason, got, want)
		}
	}
}

// TestVerifyReplacesCorruptPipelinePlan: a pipeline emitting a non-bijective
// permutation must never reach a client. The verifier replaces the plan with
// a degraded identity, classifies it transient (so it is retried), counts the
// violations, and keeps the cache clean.
func TestVerifyReplacesCorruptPipelinePlan(t *testing.T) {
	leakcheck.Goroutines(t)
	p := &countingPlanner{make: func(m *sparse.CSR, _ int) (*reorder.Result, error) {
		res := healthyResult(m)
		res.Perm[0] = res.Perm[len(res.Perm)-1] // duplicate ⇒ not a bijection
		return res, nil
	}}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, MaxRetries: 1})
	leakcheck.Zero(t, "planserve slots", func() int64 { return int64(s.SlotsInUse()) })

	m := testMatrix(t, 1)
	resp, body := postPlan(t, ts.URL, mmBody(t, m), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !pr.Degraded || !strings.Contains(pr.DegradedReason, "plan verification failed") {
		t.Fatalf("corrupt plan served without the verification mark: %s", body)
	}
	if pr.Reordered {
		t.Fatal("fallback plan still claims reordered")
	}
	if p.totalRuns() != 2 {
		t.Fatalf("runs = %d, want 2 (verification failure is transient and retried once)", p.totalRuns())
	}
	if st := s.Stats(); st.VerifyViolations == 0 {
		t.Fatal("VerifyViolations did not move")
	}
	if cache.Len() != 0 {
		t.Fatal("a corrupt/degraded plan reached the cache")
	}
}

// TestCorruptCacheEntryDemotedToMiss plants three decodable-but-invalid
// entries directly in the cache directory (bypassing Put's verification): one
// whose permutation belongs to a different row count, one marked degraded,
// and one cached under a k outside the candidate set (what a node planning
// with the retired eigengap auto-k, which could select k = 20 or 64, left
// behind). All must be demoted to misses and recomputed, and the first and
// last overwritten with the healthy plan.
func TestCorruptCacheEntryDemotedToMiss(t *testing.T) {
	leakcheck.Goroutines(t)
	dir := t.TempDir()
	mWrong := testMatrix(t, 3)
	mDegraded := testMatrix(t, 4)
	mBadK := testMatrix(t, 5)
	plant := func(e *plancache.Entry) {
		t.Helper()
		data, err := plancache.EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Key+plancache.Ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant(&plancache.Entry{Key: plancache.KeyCSR(mWrong), Perm: sparse.IdentityPerm(10)})
	plant(&plancache.Entry{
		Key:            plancache.KeyCSR(mDegraded),
		Perm:           sparse.IdentityPerm(mDegraded.Rows),
		Degraded:       true,
		DegradedReason: "requested: eigensolver did not converge; fell back to identity",
	})
	plant(&plancache.Entry{Key: plancache.KeyCSR(mBadK), Perm: healthyResult(mBadK).Perm, Reordered: true, K: 20})

	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	hitViolations := obs.Default().CounterVec(obs.VerifyViolationsName, "", "site", "code")
	wrongRows := hitViolations.With(planverify.SiteServeHit, planverify.CodePermInvalid)
	degraded := hitViolations.With(planverify.SiteServeHit, planverify.CodeDegradedCached)
	badK := hitViolations.With(planverify.SiteServeHit, planverify.CodeBadK)
	wrongBefore, degradedBefore, badKBefore := wrongRows.Value(), degraded.Value(), badK.Value()

	for _, m := range []*sparse.CSR{mWrong, mDegraded, mBadK} {
		resp, body := postPlan(t, ts.URL, mmBody(t, m), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var pr PlanResponse
		if err := json.Unmarshal([]byte(body), &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Cached {
			t.Fatalf("invalid entry served as a cache hit: %s", body)
		}
		if pr.Degraded {
			t.Fatalf("recomputation should have produced a healthy plan: %s", body)
		}
		if p.runsFor(plancache.KeyCSR(m)) != 1 {
			t.Fatal("pipeline did not recompute the demoted hit")
		}
	}
	if st := s.Stats(); st.VerifyViolations < 3 {
		t.Fatalf("VerifyViolations = %d, want ≥ 3", st.VerifyViolations)
	}
	// The wrong-rows and k=20 entries were overwritten by the healthy
	// recomputations.
	if e, ok := cache.Get(plancache.KeyCSR(mWrong)); !ok || len(e.Perm) != mWrong.Rows {
		t.Fatal("healthy recomputation did not replace the invalid entry")
	}
	if e, ok := cache.Get(plancache.KeyCSR(mBadK)); !ok || e.K != 8 {
		t.Fatal("healthy recomputation did not replace the k=20 entry")
	}
	if wrongRows.Value() == wrongBefore || degraded.Value() == degradedBefore || badK.Value() == badKBefore {
		t.Fatal("violations not recorded under the serve-hit site")
	}
}

// TestVerifyInjectedCorruptionCaughtAtServe arms the PlanCorrupt fault point
// and asserts the serving layer's verifier catches it: every response is
// still 200 but marked degraded with the verification reason, and the cache
// stays empty.
func TestVerifyInjectedCorruptionCaughtAtServe(t *testing.T) {
	leakcheck.Goroutines(t)
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.PlanCorrupt, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, MaxRetries: 1})
	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 5)), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "plan verification failed") {
		t.Fatalf("injected corruption not caught: %s", body)
	}
	if cache.Len() != 0 {
		t.Fatal("corrupt plan cached")
	}
	if s.Stats().VerifyViolations == 0 {
		t.Fatal("VerifyViolations did not move")
	}
}

// TestPipelinePlanCarriesPlanContextFields: the production PlanFunc returns
// what bootes.PlanContext returns, and attempt 1 plans at seed+0x9E3779B9.
func TestPipelinePlanCarriesPlanContextFields(t *testing.T) {
	m := workloads.ScrambledBlock(workloads.Params{Rows: 256, Cols: 256, Density: 0.04, Seed: 17, Groups: 4})
	ctx := context.Background()
	const seed = 7
	want, err := bootes.PlanContext(ctx, m, &bootes.Options{Seed: seed + 0x9E3779B9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := PipelinePlan(bootes.Options{Seed: seed})(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Reordered {
		t.Fatal("fixture: want a reordered plan")
	}
	if !slices.Equal(got.Perm, want.Perm) || got.Reordered != want.Reordered || got.Degraded != want.Degraded ||
		int(got.Extra["k"]) != want.K || got.SimilarityMode != want.SimilarityMode ||
		got.FootprintBytes != want.FootprintBytes || got.PreprocessTime <= 0 {
		t.Fatalf("attempt 1 = {k=%v sim=%q footprint=%d preprocess=%v}, want PlanContext's {k=%d sim=%q footprint=%d} and a positive time",
			got.Extra["k"], got.SimilarityMode, got.FootprintBytes, got.PreprocessTime,
			want.K, want.SimilarityMode, want.FootprintBytes)
	}

	// Through a plan cache the recorded time comes back exactly: the entry
	// attempt 1 stores is the one PlanContext at the mixed seed hits.
	cache, err := bootes.OpenPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored, err := PipelinePlan(bootes.Options{Seed: seed, Cache: cache})(ctx, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := bootes.PlanContext(ctx, m, &bootes.Options{Seed: seed + 0x9E3779B9, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FromCache {
		t.Fatal("PlanContext at seed+0x9E3779B9 missed the entry attempt 1 stored")
	}
	if d := stored.PreprocessTime.Seconds() - hit.PreprocessSeconds; d > 1e-9 || d < -1e-9 {
		t.Errorf("preprocess time %v, PlanContext recorded %gs", stored.PreprocessTime, hit.PreprocessSeconds)
	}
}
