package chaos

// Queue and tenant-fairness chaos: scenarioQueueCrash kills the durable async
// job queue at a randomized journal crash point and asserts crash-exactly-once
// recovery; scenarioTenantStorm floods one tenant through the serving stack's
// quota layer and asserts the other tenants' admission SLO holds. Both are
// timing-free: the queue scenario gates on the fault actually firing (not on
// sleeps), and the storm's quota runs on a stopped clock (no refill).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/leakcheck"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// reversalResult is the stub planner outcome for queue/tenant scenarios: a
// structurally valid, verifiably healthy plan (row reversal) that isolates
// the scenario's invariants from pipeline nondeterminism.
func reversalResult(m *sparse.CSR) *reorder.Result {
	p := make(sparse.Permutation, m.Rows)
	for i := range p {
		p[i] = int32(m.Rows - 1 - i)
	}
	return &reorder.Result{Perm: p, Reordered: true, Extra: map[string]float64{"k": 8}}
}

// scenarioQueueCrash enqueues a batch of jobs on the durable queue, arms one
// journal crash point (half-written append or skipped fsync), lets the first
// life run until it drains or wedges on the injected crash, then kills it and
// restarts from the journal. Jobs run as bootesd runs them, through
// planserve's RunJob over the episode's cache; in some episodes the stub
// pipeline degrades some matrices, and degraded plans are never cached.
// Invariants:
//
//   - every acked job (Enqueue returned success) survives the crash and
//     reaches done in the second life — a torn tail may only eat records the
//     client was never acked for;
//   - crash-exactly-once for healthy plans: a job observed done before the
//     crash never runs again (its completion is re-discovered through the
//     plan cache on replay), and a job caught queued or mid-run by the crash
//     runs at most once more — execution is at-least-once, completion
//     exactly-once;
//   - a degraded job whose done record the crash lost has no cache entry to
//     complete from, so it is planned again: it too runs at most once more
//     after the restart, and never more than once per life;
//   - a half-written append is detected as exactly one torn tail on reopen.
func scenarioQueueCrash(e *episode) {
	cache, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("queue-crash: open cache: %v", err)
		return
	}
	qdir := e.dir + ".queue"

	var mu sync.Mutex
	runs := map[string]int{}
	// In degrading episodes, about half the keys (by content hash) degrade.
	degradeSome := e.rng.Intn(2) == 0
	degraded := func(key string) bool { return degradeSome && key[0] < '8' }
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		key := plancache.KeyCSR(m)
		mu.Lock()
		runs[key]++
		mu.Unlock()
		if degraded(key) {
			return &reorder.Result{
				Perm:           sparse.IdentityPerm(m.Rows),
				Degraded:       true,
				DegradedReason: "wall-clock budget exhausted; fell back to identity",
			}, nil
		}
		return reversalResult(m), nil
	}
	// open starts one life, wired as fleet.StartNode wires a node: a queue
	// whose jobs run through a planserve server over c, on one registry.
	open := func(c *plancache.Cache) (*planqueue.Queue, *obs.Registry, error) {
		reg := obs.NewRegistry()
		q, err := planqueue.Open(planqueue.Config{
			Dir:          qdir,
			Workers:      1 + e.rng.Intn(3),
			RetryBackoff: time.Millisecond,
			Metrics:      reg,
			Seed:         e.rng.Int63(),
		})
		if err != nil {
			return nil, nil, err
		}
		srv, err := planserve.New(planserve.Config{
			Plan:    plan,
			Cache:   c,
			Metrics: reg,
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			q.Kill()
			return nil, nil, err
		}
		q.Start(srv.RunJob)
		return q, reg, nil
	}

	q1, _, err := open(cache)
	if err != nil {
		e.violatef("queue-crash: open queue: %v", err)
		return
	}

	jobs := 2 + e.rng.Intn(4)
	points := []string{faultinject.JournalAppendWrite, faultinject.JournalAppendFsync}
	point := points[e.rng.Intn(len(points))]
	e.rep.Faults[point]++
	fired := make(chan struct{})
	// The journal appends roughly twice per job (ack + terminal record), so
	// this window can hit an enqueue ack, a completion, or nothing at all.
	if err := faultinject.Arm(point,
		faultinject.After(e.rng.Intn(2*jobs+1)),
		faultinject.OnFire(func() { close(fired) })); err != nil {
		e.violatef("queue-crash: arming %s: %v", point, err)
		return
	}

	tenants := []string{"alpha", "beta", "gamma"}
	type ack struct{ id, key string }
	var acked []ack
	for i := 0; i < jobs; i++ {
		jb, _, err := q1.Enqueue(tenants[e.rng.Intn(len(tenants))], e.matrix())
		if err != nil {
			// The ack append crashed (or the queue wedged): the client never
			// got a job id, so this job owes no durability.
			break
		}
		acked = append(acked, ack{jb.ID, jb.Key})
	}

	// First life: run until it drains or the injected crash wedges it. The
	// fired channel makes the wedged branch prompt — no deadline heuristics.
	idleCtx, idleCancel := context.WithCancel(context.Background())
	idle := make(chan struct{})
	go func() { _ = q1.WaitIdle(idleCtx); close(idle) }()
	select {
	case <-fired:
	case <-idle:
	case <-time.After(10 * time.Second):
		e.violatef("queue-crash: first life neither drained nor crashed")
	}
	q1.Kill()
	idleCancel()
	<-idle
	crashed := false
	select {
	case <-fired:
		crashed = true
	default:
	}
	faultinject.Reset()

	// Snapshot the first life: which keys already ran (Kill joined the
	// workers, so the counters are final), and which jobs the client could
	// have observed as done.
	runsBefore := map[string]int{}
	mu.Lock()
	for k, n := range runs {
		runsBefore[k] = n
	}
	mu.Unlock()
	doneBefore := map[string]bool{}
	for _, a := range acked {
		if jb, ok := q1.Get(a.id); ok && jb.State == planqueue.StateDone {
			doneBefore[a.key] = true
		}
	}

	// Second life: replay the journal against a reopened cache, drain, and
	// hold the queue to the recovery contract.
	cache2, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("queue-crash: reopen cache: %v", err)
		return
	}
	q2, reg2, err := open(cache2)
	if err != nil {
		e.violatef("queue-crash: reopen after crash at %s: %v", point, err)
		return
	}
	if crashed && point == faultinject.JournalAppendWrite {
		if tt := q2.Stats().TornTails; tt != 1 {
			e.violatef("queue-crash: half-written append left %d torn tails, want 1", tt)
		}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := q2.WaitIdle(wctx); err != nil {
		e.violatef("queue-crash: second life never drained: %v", err)
	}
	for _, a := range acked {
		jb, ok := q2.Get(a.id)
		if !ok {
			e.violatef("queue-crash: acked job %s lost across the crash (point %s)", a.id, point)
			continue
		}
		if jb.State != planqueue.StateDone {
			e.violatef("queue-crash: acked job %s ended %s (%q), want done", a.id, jb.State, jb.Reason)
		} else if jb.Degraded != degraded(a.key) {
			e.violatef("queue-crash: job %s done with degraded=%v, want %v", a.id, jb.Degraded, degraded(a.key))
		}
	}
	mu.Lock()
	for _, a := range acked {
		n := runs[a.key]
		switch {
		case n == 0:
			e.violatef("queue-crash: key %.12s reached done without ever running", a.key)
		case doneBefore[a.key] && !degraded(a.key) && n != runsBefore[a.key]:
			e.violatef("queue-crash: key %.12s completed before the crash yet re-ran after restart (%d → %d runs)",
				a.key, runsBefore[a.key], n)
		case n-runsBefore[a.key] > 1:
			e.violatef("queue-crash: key %.12s ran %d times in the second life, want at most one",
				a.key, n-runsBefore[a.key])
		case runsBefore[a.key] > 1:
			e.violatef("queue-crash: key %.12s ran %d times in the first life, want at most one",
				a.key, runsBefore[a.key])
		}
	}
	mu.Unlock()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := q2.Stop(sctx); err != nil {
		e.violatef("queue-crash: drain on stop: %v", err)
	}
	e.checkObs("queue-crash registry", reg2)
}

// scenarioTenantStorm floods one tenant past the burst of the quota every
// tenant gets while two bystander tenants, each within that burst, keep
// submitting. The SLO under test: a flooding tenant is shed with 429 +
// Retry-After once its own budget is gone, and bystanders are never shed —
// quota damage does not spread. The server's clock is stopped, so no bucket
// refills and the outcome is exact: the flooder gets precisely its burst of
// admissions.
func scenarioTenantStorm(e *episode) {
	reg := obs.NewRegistry()
	burst := 3 + e.rng.Intn(3)
	flood := burst + 3 + e.rng.Intn(5)
	stopped := time.Unix(1_700_000_000, 0)
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		return reversalResult(m), nil
	}
	srv, err := planserve.New(planserve.Config{
		Plan:            plan,
		MaxInFlight:     2,
		MaxQueue:        4,
		DefaultDeadline: 5 * time.Second,
		Tenants:         planserve.TenantConfig{Rate: 1, Burst: burst},
		Metrics:         reg,
		Now:             func() time.Time { return stopped },
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		e.violatef("tenant-storm: %v", err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m := e.matrix()
	var buf strings.Builder
	_ = sparse.WriteMatrixMarket(&buf, m)
	body := buf.String()
	send := func(tenant string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan?perm=1", strings.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK {
			var pr planserve.PlanResponse
			if err := json.Unmarshal(b, &pr); err != nil {
				e.violatef("tenant-storm: unparseable 200 body: %v", err)
			} else {
				e.checkPlanShape("tenant-storm", m.Rows, sparse.Permutation(pr.Perm), pr.K,
					pr.Reordered, pr.Degraded, pr.DegradedReason)
			}
		}
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Interleave the flood with bystander traffic in a seeded random order;
	// requests are sequential, so a 429 can only come from the quota layer,
	// never from admission racing. A bystander's requests fit the burst.
	perVictim := 2 + e.rng.Intn(2)
	victims := []string{"victim-a", "victim-b"}
	var specs []string
	for i := 0; i < flood; i++ {
		specs = append(specs, "flooder")
	}
	for _, v := range victims {
		for i := 0; i < perVictim; i++ {
			specs = append(specs, v)
		}
	}
	e.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	okCount := map[string]int{}
	shed := map[string]int{}
	for _, tenant := range specs {
		code, retryAfter := send(tenant)
		switch code {
		case http.StatusOK:
			okCount[tenant]++
		case http.StatusTooManyRequests:
			shed[tenant]++
			if retryAfter == "" {
				e.violatef("tenant-storm: 429 for %s without Retry-After", tenant)
			}
		default:
			e.violatef("tenant-storm: unexpected status %d for %s", code, tenant)
		}
	}
	for _, v := range victims {
		if shed[v] != 0 {
			e.violatef("tenant-storm: bystander %s shed %d times by the flooder's storm", v, shed[v])
		}
		if okCount[v] != perVictim {
			e.violatef("tenant-storm: bystander %s served %d/%d requests", v, okCount[v], perVictim)
		}
	}
	if okCount["flooder"] != burst {
		e.violatef("tenant-storm: flooder admitted %d times, want exactly its burst %d", okCount["flooder"], burst)
	}
	if shed["flooder"] != flood-burst {
		e.violatef("tenant-storm: flooder shed %d times, want %d", shed["flooder"], flood-burst)
	}
	if got := srv.Stats().TenantShed; got != int64(flood-burst) {
		e.violatef("tenant-storm: TenantShed counter reads %d, want %d", got, flood-burst)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		e.violatef("tenant-storm: drain failed: %v", err)
	}
	if err := leakcheck.SettleZero("admission slots", func() int64 {
		return int64(srv.SlotsInUse())
	}); err != nil {
		e.violatef("tenant-storm: %v", err)
	}
	e.checkObs("tenant-storm registry", reg)
}
