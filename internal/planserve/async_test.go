package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// newAsyncServer builds a test server over cfg with a durable queue from
// qcfg (a temp Dir and one worker unless set) whose jobs run through the
// server's RunJob, as fleet.StartNode wires them. The queue is killed at
// cleanup.
func newAsyncServer(t testing.TB, cfg Config, qcfg planqueue.Config) (*Server, *httptest.Server) {
	t.Helper()
	if qcfg.Dir == "" {
		qcfg.Dir = t.TempDir()
	}
	if qcfg.Workers == 0 {
		qcfg.Workers = 1
	}
	qcfg.RetryBackoff, qcfg.Logf = time.Millisecond, t.Logf
	q, err := planqueue.Open(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Kill)
	cfg.Queue = q
	s, ts := newTestServer(t, cfg)
	q.Start(s.RunJob)
	return s, ts
}

// submitJob posts m as an async job and returns its id.
func submitJob(t testing.TB, url string, m *sparse.CSR) string {
	t.Helper()
	resp, body := doPlan(t, url, "?async=1", mmBody(t, m), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", resp.StatusCode, body)
	}
	var sub JobResponse
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	return sub.JobID
}

// awaitJob polls GET /v1/jobs/{id}?perm=1 until the job is terminal.
func awaitJob(t testing.TB, url, id string) JobResponse {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		r, jr := getJob(t, url, id+"?perm=1")
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d", r.StatusCode)
		}
		if jr.State == "done" || jr.State == "dead" {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", jr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func doPlan(t testing.TB, url, query string, body []byte, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/plan"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func getJob(t testing.TB, url, id string) (*http.Response, JobResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("decoding job response %q: %v", body, err)
		}
	}
	return resp, jr
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	_, ts := newAsyncServer(t, Config{Plan: p.fn(), Cache: cache}, planqueue.Config{})

	resp, body := doPlan(t, ts.URL, "?async=1", mmBody(t, testMatrix(t, 1)), map[string]string{"X-Tenant": "acme"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", resp.StatusCode, body)
	}
	var sub JobResponse
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.State != "queued" || sub.Tenant != "acme" {
		t.Fatalf("submission response %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.JobID {
		t.Fatalf("Location = %q", loc)
	}

	deadline := time.Now().Add(5 * time.Second)
	var jr JobResponse
	for {
		var r *http.Response
		r, jr = getJob(t, ts.URL, sub.JobID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d", r.StatusCode)
		}
		if jr.State == "done" || jr.State == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", jr.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if jr.State != "done" || jr.Plan == nil {
		t.Fatalf("finished job = %+v, want done with a plan", jr)
	}
	if !jr.Plan.Reordered || jr.Plan.K != 8 {
		t.Fatalf("plan payload = %+v", jr.Plan)
	}
	if jr.Plan.Perm != nil {
		t.Fatal("permutation included without ?perm=1")
	}
	// The same submission now dedupes... against the cache-completed plan via
	// a fresh job that finishes instantly from cache.
	resp2, body2 := doPlan(t, ts.URL, "?async=1", mmBody(t, testMatrix(t, 1)), nil)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission status %d: %s", resp2.StatusCode, body2)
	}
}

func TestAsyncWithoutQueueIs501(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, _ := doPlan(t, ts.URL, "?async=1", mmBody(t, testMatrix(t, 2)), nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("async submit without a queue = %d, want 501", resp.StatusCode)
	}
	if r, _ := getJob(t, ts.URL, "j-0000000001"); r.StatusCode != http.StatusNotImplemented {
		t.Fatalf("job poll without a queue = %d, want 501", r.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newAsyncServer(t, Config{Plan: p.fn()}, planqueue.Config{})
	if r, _ := getJob(t, ts.URL, "j-9999999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job poll = %d, want 404", r.StatusCode)
	}
}

// TestAsyncBacklogRejection maps the queue's backlog bounds to 429 +
// Retry-After on the submission path.
func TestAsyncBacklogRejection(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := &countingPlanner{gate: block}
	_, ts := newAsyncServer(t, Config{Plan: p.fn()}, planqueue.Config{MaxQueued: 2, MaxQueuedPerTenant: 2})

	for i := 0; i < 2; i++ {
		resp, body := doPlan(t, ts.URL, "?async=1", mmBody(t, testMatrix(t, 10+int64(i))), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doPlan(t, ts.URL, "?async=1", mmBody(t, testMatrix(t, 12)), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-backlog submission status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("rejection body %q", body)
	}
}

// TestSyncAndAsyncPlanAlike: a sync request and an async job for the same
// matrix, each on a fresh server, take one plan path. The stub's first
// attempt degrades transiently; both paths retry it at attempt 1 under
// MaxRetries and serve the same permutation and k. The async retry happens
// inside one Run call, so the job records one attempt and no failure.
func TestSyncAndAsyncPlanAlike(t *testing.T) {
	m := testMatrix(t, 40)
	newServer := func(async bool) (*Server, *httptest.Server, *[]int) {
		var mu sync.Mutex
		var attempts []int
		p := &countingPlanner{make: func(m *sparse.CSR, attempt int) (*reorder.Result, error) {
			mu.Lock()
			attempts = append(attempts, attempt)
			mu.Unlock()
			if attempt == 0 {
				return degradedResult(m, "requested: eigensolver did not converge"), nil
			}
			perm := make(sparse.Permutation, m.Rows)
			for i := range perm {
				perm[i] = int32((i + 7*attempt) % m.Rows)
			}
			return &reorder.Result{Perm: perm, Reordered: true, Extra: map[string]float64{"k": 8}}, nil
		}}
		cache, err := plancache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Plan: p.fn(), Cache: cache, MaxRetries: 2}
		if !async {
			s, ts := newTestServer(t, cfg)
			return s, ts, &attempts
		}
		s, ts := newAsyncServer(t, cfg, planqueue.Config{})
		return s, ts, &attempts
	}

	syncSrv, syncTS, syncAttempts := newServer(false)
	resp, body := doPlan(t, syncTS.URL, "?perm=1", mmBody(t, m), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", resp.StatusCode, body)
	}
	var syncPlan PlanResponse
	if err := json.Unmarshal([]byte(body), &syncPlan); err != nil {
		t.Fatal(err)
	}

	asyncSrv, asyncTS, asyncAttempts := newServer(true)
	jr := awaitJob(t, asyncTS.URL, submitJob(t, asyncTS.URL, m))
	if jr.State != "done" || jr.Plan == nil {
		t.Fatalf("job = %+v, want done with a plan", jr)
	}
	if jr.Attempts != 1 {
		t.Fatalf("job attempts = %d, want 1 (the retry is inside one Run call)", jr.Attempts)
	}

	if syncPlan.Degraded || jr.Plan.Degraded {
		t.Fatalf("a path served the transiently degraded attempt: sync %+v, async %+v", syncPlan, jr.Plan)
	}
	if !slices.Equal(syncPlan.Perm, jr.Plan.Perm) || syncPlan.K != jr.Plan.K {
		t.Fatalf("paths disagree: sync k=%d perm=%v, async k=%d perm=%v",
			syncPlan.K, syncPlan.Perm, jr.Plan.K, jr.Plan.Perm)
	}
	for name, got := range map[string][]int{"sync": *syncAttempts, "async": *asyncAttempts} {
		if !slices.Equal(got, []int{0, 1}) {
			t.Errorf("%s path ran attempts %v, want [0 1]", name, got)
		}
	}
	for name, srv := range map[string]*Server{"sync": syncSrv, "async": asyncSrv} {
		if st := srv.Stats(); st.Retries != 1 {
			t.Errorf("%s server Retries = %d, want 1", name, st.Retries)
		}
	}
	if st := asyncSrv.Stats(); st.Queue.Failed != 0 {
		t.Errorf("queue Failed = %d, want 0 (a degradation is not a failed run)", st.Queue.Failed)
	}
}

// plantEntry writes e into a cache directory directly, bypassing Put's
// verification, as a damaged or foreign disk would hold it.
func plantEntry(t testing.TB, dir string, e *plancache.Entry) {
	t.Helper()
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, e.Key+plancache.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCorruptCacheEntryRecomputed: an async job whose cached entry fails
// verification (a 10-row plan for a 48-row matrix) is recomputed, as a sync
// request would be, and GET /v1/jobs serves the recomputed plan.
func TestAsyncCorruptCacheEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	m := testMatrix(t, 41)
	key := plancache.KeyCSR(m)
	plantEntry(t, dir, &plancache.Entry{Key: key, Perm: sparse.IdentityPerm(10)})
	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	s, ts := newAsyncServer(t, Config{Plan: p.fn(), Cache: cache}, planqueue.Config{})

	jr := awaitJob(t, ts.URL, submitJob(t, ts.URL, m))
	if jr.State != "done" || jr.Plan == nil {
		t.Fatalf("job = %+v, want done with a plan", jr)
	}
	if jr.Plan.Cached {
		t.Fatal("job completed from the invalid cache entry")
	}
	if n := p.runsFor(key); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1 (the bad entry is a miss)", n)
	}
	if jr.Plan.Rows != m.Rows || len(jr.Plan.Perm) != m.Rows || jr.Plan.K != 8 {
		t.Fatalf("served plan rows=%d perm=%d k=%d, want the recomputed %d-row plan",
			jr.Plan.Rows, len(jr.Plan.Perm), jr.Plan.K, m.Rows)
	}
	if e, ok := cache.Get(key); !ok || len(e.Perm) != m.Rows {
		t.Fatal("the recomputed plan did not replace the invalid entry")
	}
	if st := s.Stats(); st.VerifyViolations == 0 {
		t.Fatal("VerifyViolations did not move")
	}
}

// TestAsyncCacheHitSkipsPipeline: an async job whose plan is cached completes
// from the cache without a pipeline run, and says so.
func TestAsyncCacheHitSkipsPipeline(t *testing.T) {
	m := testMatrix(t, 42)
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(plancache.EntryFromResult(plancache.KeyCSR(m), healthyResult(m))); err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	s, ts := newAsyncServer(t, Config{Plan: p.fn(), Cache: cache}, planqueue.Config{})

	jr := awaitJob(t, ts.URL, submitJob(t, ts.URL, m))
	if jr.State != "done" || jr.Plan == nil || !jr.Plan.Cached {
		t.Fatalf("job = %+v, want done from the cache", jr)
	}
	if n := p.totalRuns(); n != 0 {
		t.Fatalf("pipeline ran %d times for a cached plan, want 0", n)
	}
	if st := s.Stats(); st.Queue.CachedDone != 1 {
		t.Fatalf("queue CachedDone = %d, want 1", st.Queue.CachedDone)
	}
}

// TestJobPlanReverified: GET /v1/jobs re-verifies the cached plan it
// returns. After a restart over a cache whose entry for a done job's matrix
// was replaced by a degraded one, the poll answers the job's own summary,
// never the unverified entry.
func TestJobPlanReverified(t *testing.T) {
	cacheDir, queueDir := t.TempDir(), t.TempDir()
	m := testMatrix(t, 43)
	key := plancache.KeyCSR(m)
	cache, err := plancache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	s, ts := newAsyncServer(t, Config{Plan: p.fn(), Cache: cache}, planqueue.Config{Dir: queueDir})
	id := submitJob(t, ts.URL, m)
	if jr := awaitJob(t, ts.URL, id); jr.State != "done" {
		t.Fatalf("job = %+v, want done", jr)
	}
	s.cfg.Queue.Kill()

	plantEntry(t, cacheDir, &plancache.Entry{
		Key:            key,
		Perm:           sparse.IdentityPerm(m.Rows),
		Degraded:       true,
		DegradedReason: "requested: eigensolver did not converge; fell back to identity",
	})
	cache2, err := plancache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newAsyncServer(t, Config{Plan: p.fn(), Cache: cache2}, planqueue.Config{Dir: queueDir})
	jr := awaitJob(t, ts2.URL, id)
	if jr.Plan == nil || jr.Plan.Degraded || !jr.Plan.Reordered || jr.Plan.K != 8 || jr.Plan.Perm != nil {
		t.Fatalf("poll plan = %+v, want the job's healthy summary without the entry's permutation", jr.Plan)
	}
	if st := s2.Stats(); st.VerifyViolations == 0 {
		t.Fatal("VerifyViolations did not move")
	}
}

// TestTenantQuotaShedsWithRetryAfter drives a flooding tenant into its token
// bucket's floor and checks the polite tenant is untouched — on the sync
// path, before any body is read.
func TestTenantQuotaShedsWithRetryAfter(t *testing.T) {
	p := &countingPlanner{}
	s, ts := newTestServer(t, Config{
		Plan: p.fn(),
		Tenants: TenantConfig{
			Rate:  0.5, // 1 token per 2s: easy to exhaust deterministically
			Burst: 2,
		},
	})
	body := mmBody(t, testMatrix(t, 20))
	flood := map[string]string{"X-Tenant": "flooder"}
	for i := 0; i < 2; i++ {
		resp, b := doPlan(t, ts.URL, "", body, flood)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-quota request %d = %d: %s", i, resp.StatusCode, b)
		}
	}
	// ?tenant= names the tenant when the header is absent: the same bucket.
	resp, b := doPlan(t, ts.URL, "?tenant=flooder", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d: %s", resp.StatusCode, b)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("quota shed without Retry-After")
	}
	if !strings.Contains(b, `tenant "flooder"`) {
		t.Fatalf("shed body %q does not name the tenant", b)
	}
	// Tenant-specific: the refill rate (0.5/s, 1 token owed) puts the wait
	// near 2s — not the generic admission value of 1.
	if ra == "1" {
		t.Fatalf("Retry-After = %q, want the tenant bucket's own refill time", ra)
	}
	// Another tenant is not collateral damage.
	if resp, b := doPlan(t, ts.URL, "", body, map[string]string{"X-Tenant": "polite"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant = %d: %s", resp.StatusCode, b)
	}
	if st := s.Stats(); st.TenantShed != 1 {
		t.Fatalf("Stats.TenantShed = %d, want 1", st.TenantShed)
	}
	// The per-tenant shed counter carries the tenant label.
	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `bootes_tenant_shed_total{tenant="flooder"} 1`) {
		t.Fatalf("per-tenant shed metric missing:\n%s", sb.String())
	}
}

// TestOversizedUploadIs413 is the -max-upload-bytes guard: a body over the
// limit is refused with 413 (not 400) before the server buffers it.
func TestOversizedUploadIs413(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn(), MaxUploadBytes: 512})
	big := mmBody(t, testMatrix(t, 22)) // 48×48 at 8% density ≫ 512 bytes
	if len(big) <= 512 {
		t.Fatalf("test body only %d bytes; raise the matrix size", len(big))
	}
	resp, body := doPlan(t, ts.URL, "", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d (%s), want 413", resp.StatusCode, body)
	}
	if !strings.Contains(body, "512") {
		t.Fatalf("413 body %q does not state the limit", body)
	}
	if p.totalRuns() != 0 {
		t.Fatal("pipeline ran on a rejected oversized upload")
	}
	// A body exactly at the limit parses normally (the guard is >, not ≥).
	small := mmBody(t, testMatrix(t, 23))
	_, ts2 := newTestServer(t, Config{Plan: p.fn(), MaxUploadBytes: int64(len(small))})
	if resp, b := doPlan(t, ts2.URL, "", small, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("at-limit upload = %d: %s", resp.StatusCode, b)
	}
}

// TestSingleflightFollowerCancelDetaches pins the follower-detach contract
// (the satellite coverage for singleflight.go): a joined waiter whose context
// is cancelled must return promptly with the context error, without
// cancelling the leader's flight and without leaking an admission slot.
func TestSingleflightFollowerCancelDetaches(t *testing.T) {
	var g flightGroup[*reorder.Result]
	leaderGate := make(chan struct{})
	leaderStarted := make(chan struct{})
	res := &reorder.Result{Reordered: true}

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderRes *reorder.Result
	var leaderShared bool
	var leaderErr error
	go func() {
		defer wg.Done()
		leaderRes, leaderShared, leaderErr = g.do(context.Background(), "k", func() (*reorder.Result, error) {
			close(leaderStarted)
			<-leaderGate
			return res, nil
		})
	}()
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, shared, err := g.do(ctx, "k", func() (*reorder.Result, error) {
			t.Error("follower ran the function itself")
			return nil, nil
		})
		if !shared {
			t.Error("cancelled follower not marked shared")
		}
		followerDone <- err
	}()
	// Let the follower join, then abandon it mid-wait.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower never detached")
	}

	// The leader is unaffected: release it and it completes with its result.
	close(leaderGate)
	wg.Wait()
	if leaderErr != nil || leaderShared || leaderRes != res {
		t.Fatalf("leader = (%v, shared=%v, %v), want its own result", leaderRes, leaderShared, leaderErr)
	}

	// The key is free again: a new call becomes a leader, not a follower.
	r2, shared, err := g.do(context.Background(), "k", func() (*reorder.Result, error) {
		return res, nil
	})
	if err != nil || shared || r2 != res {
		t.Fatalf("post-flight call = (%v, shared=%v, %v), want a fresh leader", r2, shared, err)
	}
}

// TestSingleflightFollowerCancelUnderLoad runs the detach scenario through
// the full server against a saturated admission semaphore, asserting no slot
// leaks (race-clean under -race; leakcheck guards the slot invariant).
func TestSingleflightFollowerCancelUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	p := &countingPlanner{gate: gate}
	s, ts := newTestServer(t, Config{Plan: p.fn(), MaxInFlight: 1})
	body := mmBody(t, testMatrix(t, 24))

	// Leader occupies the only slot.
	leaderDone := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, body, "")
		leaderDone <- resp.StatusCode
	}()
	waitForCondition(t, time.Second, func() bool { return s.SlotsInUse() == 1 })

	// Followers join the same key with a short deadline and give up.
	var fwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			resp, err := http.DefaultClient.Do(req.WithContext(ctx))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	fwg.Wait()

	// Leader still completes healthy after its followers abandoned it.
	close(gate)
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader finished %d after followers detached, want 200", code)
	}
	waitForCondition(t, time.Second, func() bool { return s.SlotsInUse() == 0 })
	if n := p.totalRuns(); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1 (followers must not re-run)", n)
	}
}

func waitForCondition(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
