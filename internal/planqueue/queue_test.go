package planqueue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/plancache"
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

// runRecorder is a RunFunc that counts Run calls per matrix key.
type runRecorder struct {
	mu    sync.Mutex
	runs  map[string]int
	order []string // keys in execution order
	fn    func(m *sparse.CSR) (*reorder.Result, error)
}

func newRunRecorder(fn func(m *sparse.CSR) (*reorder.Result, error)) *runRecorder {
	if fn == nil {
		fn = func(m *sparse.CSR) (*reorder.Result, error) {
			return healthyResult(m), nil
		}
	}
	return &runRecorder{runs: make(map[string]int), fn: fn}
}

func (rr *runRecorder) run(ctx context.Context, key string, m *sparse.CSR) (*reorder.Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	rr.mu.Lock()
	rr.runs[key]++
	rr.order = append(rr.order, key)
	rr.mu.Unlock()
	res, err := rr.fn(m)
	return res, false, err
}

func (rr *runRecorder) count(key string) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.runs[key]
}

func testConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Dir:          t.TempDir(),
		Workers:      1,
		RetryBackoff: time.Millisecond,
	}
}

func waitIdle(t testing.TB, q *Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.WaitIdle(ctx); err != nil {
		t.Fatalf("queue never went idle: %v", err)
	}
}

func TestEnqueueRunsToDone(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()

	m := testMatrix(t, 1)
	jb, dup, err := q.Enqueue("acme", m)
	if err != nil || dup {
		t.Fatalf("Enqueue = (%+v, dup=%v, %v)", jb, dup, err)
	}
	if jb.State != StateQueued || jb.ID == "" || jb.Key != plancache.KeyCSR(m) {
		t.Fatalf("fresh job = %+v, want queued with an ID and the matrix key", jb)
	}
	q.Start(rr.run)
	waitIdle(t, q)

	got, ok := q.Get(jb.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("job after drain = (%+v, %v), want done", got, ok)
	}
	if !got.Reordered || got.K != 8 || got.Attempts != 1 || got.Cached {
		t.Fatalf("job summary = %+v, want reordered k=8 attempts=1, not cached", got)
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, "spool", jb.Key+".bcsr")); !os.IsNotExist(err) {
		t.Fatalf("spool payload not retired after completion: %v", err)
	}
	s := q.Stats()
	if s.Enqueued != 1 || s.Done != 1 || s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEnqueueDedupesActiveJob(t *testing.T) {
	q, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	m := testMatrix(t, 2)
	a, _, err := q.Enqueue("acme", m)
	if err != nil {
		t.Fatal(err)
	}
	b, dup, err := q.Enqueue("acme", m)
	if err != nil || !dup || b.ID != a.ID {
		t.Fatalf("identical submission = (%+v, dup=%v, %v), want dup of %s", b, dup, err, a.ID)
	}
	if s := q.Stats(); s.Deduped != 1 || s.Enqueued != 1 {
		t.Fatalf("stats = %+v, want 1 enqueued 1 deduped", s)
	}
}

func TestRetriesThenDead(t *testing.T) {
	rr := newRunRecorder(func(*sparse.CSR) (*reorder.Result, error) {
		return nil, errors.New("solver exploded")
	})
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", testMatrix(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	q.Start(rr.run)
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDead {
		t.Fatalf("poisoned job state = %s, want dead", got.State)
	}
	if got.Attempts != 3 || !strings.Contains(got.Reason, "solver exploded") {
		t.Fatalf("dead job = %+v, want 3 attempts with the failure reason", got)
	}
	if n := rr.count(jb.Key); n != 3 {
		t.Fatalf("Run called %d times, want exactly maxAttempts=3 (dead jobs are never retried hot)", n)
	}
	s := q.Stats()
	if s.Dead != 1 || s.Failed != 2 {
		t.Fatalf("stats = %+v, want Dead=1 Failed=2", s)
	}
	// The dead job keeps its payload for postmortem resubmission.
	if _, err := os.Stat(filepath.Join(cfg.Dir, "spool", jb.Key+".bcsr")); err != nil {
		t.Fatalf("dead job's spool payload missing: %v", err)
	}
}

func degradedResult(m *sparse.CSR) *reorder.Result {
	return &reorder.Result{
		Perm:           sparse.IdentityPerm(m.Rows),
		Degraded:       true,
		DegradedReason: "memory budget: traffic regression predicted",
	}
}

// TestDeterministicDegradationCompletesDegraded: a degraded plan is a
// result, not a failure — the queue completes the job with it and never
// re-runs it (retrying transient degradations is Run's business).
func TestDeterministicDegradationCompletesDegraded(t *testing.T) {
	rr := newRunRecorder(func(m *sparse.CSR) (*reorder.Result, error) {
		return degradedResult(m), nil
	})
	q, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", testMatrix(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	q.Start(rr.run)
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDone || !got.Degraded {
		t.Fatalf("job = %+v, want done degraded", got)
	}
	if n := rr.count(jb.Key); n != 1 {
		t.Fatalf("Run called %d times for a degraded plan, want 1", n)
	}
}

func TestBacklogBounds(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueued = 3
	cfg.MaxQueuedPerTenant = 2
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	if _, _, err := q.Enqueue("acme", testMatrix(t, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 11)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 12)); !errors.Is(err, ErrTenantBacklog) {
		t.Fatalf("third acme job error = %v, want ErrTenantBacklog", err)
	}
	if _, _, err := q.Enqueue("globex", testMatrix(t, 13)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("initech", testMatrix(t, 14)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-global-bound job error = %v, want ErrQueueFull", err)
	}
}

// TestWeightedFairOrder pins the WFQ dequeue order: with weights
// {light:1, heavy:3} and both backlogs enqueued up front, a single worker
// must serve roughly three heavy jobs per light job — the heavy tenant's
// backlog cannot starve the light one, and the weights hold.
func TestWeightedFairOrder(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t)
	cfg.Weights = map[string]float64{"heavy": 3, "light": 1}
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()

	tenantOf := make(map[string]string)
	for i := 0; i < 4; i++ {
		jb, _, err := q.Enqueue("light", testMatrix(t, 100+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[jb.Key] = "light"
	}
	for i := 0; i < 12; i++ {
		jb, _, err := q.Enqueue("heavy", testMatrix(t, 200+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[jb.Key] = "heavy"
	}
	q.Start(rr.run)
	waitIdle(t, q)

	rr.mu.Lock()
	order := append([]string(nil), rr.order...)
	rr.mu.Unlock()
	if len(order) != 16 {
		t.Fatalf("executed %d jobs, want 16", len(order))
	}
	// In every window of 4 completions the light tenant gets at least one
	// slot (weight share 1/4) and the heavy tenant at least two.
	for w := 0; w+4 <= len(order); w += 4 {
		light, heavy := 0, 0
		for _, key := range order[w : w+4] {
			if tenantOf[key] == "light" {
				light++
			} else {
				heavy++
			}
		}
		if light < 1 || heavy < 2 {
			t.Fatalf("window %d..%d served light=%d heavy=%d; WFQ share violated (order %v)",
				w, w+4, light, heavy, tenantNames(order, tenantOf))
		}
	}
}

func tenantNames(keys []string, tenantOf map[string]string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = tenantOf[k]
	}
	return out
}

func TestStopDrainKeepsQueuedJobsDurable(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(t, 20+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
	}
	// Stop without ever starting workers: a pure checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Stop = %v, want ErrClosed", err)
	}

	q2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	for _, id := range ids {
		jb, ok := q2.Get(id)
		if !ok || jb.State != StateQueued {
			t.Fatalf("job %s after restart = (%+v, %v), want queued", id, jb, ok)
		}
	}
	q2.Start(rr.run)
	waitIdle(t, q2)
	for _, id := range ids {
		if jb, _ := q2.Get(id); jb.State != StateDone {
			t.Fatalf("job %s = %+v, want done after restart drain", id, jb)
		}
	}
}

func TestCompactionBoundsJournal(t *testing.T) {
	rr := newRunRecorder(nil)
	defer func(every, retain int) { compactEvery, retainTerminal = every, retain }(compactEvery, retainTerminal)
	compactEvery, retainTerminal = 5, 4
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	q.Start(rr.run)
	var ids []string
	for i := 0; i < 20; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(t, 300+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
	}
	waitIdle(t, q)
	s := q.Stats()
	if s.Compactions == 0 {
		t.Fatalf("no compactions after 20 terminal jobs with compactEvery=5: %+v", s)
	}
	// Retention: the newest terminal jobs stay queryable, the oldest age out.
	if _, ok := q.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest terminal job evicted")
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest terminal job still resident beyond retainTerminal")
	}

	// A restart over the compacted journal sees the same retained set.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	q2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	if jb, ok := q2.Get(ids[len(ids)-1]); !ok || jb.State != StateDone {
		t.Fatalf("retained terminal job after restart = (%+v, %v), want done", jb, ok)
	}
}

func TestQueueMetricsRegistered(t *testing.T) {
	rr := newRunRecorder(nil)
	q, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	if _, _, err := q.Enqueue("acme", testMatrix(t, 60)); err != nil {
		t.Fatal(err)
	}
	q.Start(rr.run)
	waitIdle(t, q)
	var b strings.Builder
	if err := q.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`bootes_jobs_total{state="queued"} 1`,
		`bootes_jobs_total{state="done"} 1`,
		"bootes_queue_depth 0",
		"bootes_queue_running 0",
		"bootes_queue_journal_bytes",
		"bootes_queue_recovered_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRecoveryAfterInjectedAppendCrash is the unit-level version of the chaos
// queue-crash scenario: an injected crash mid-append wedges the queue; reopen
// truncates the torn tail and loses nothing that was acked.
func TestRecoveryAfterInjectedAppendCrash(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rr := newRunRecorder(nil)
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked, _, err := q.Enqueue("acme", testMatrix(t, 70))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendWrite); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 71)); !errors.Is(err, ErrJournalCrash) {
		t.Fatalf("enqueue under injected crash = %v, want ErrJournalCrash", err)
	}
	// The queue wedged itself: no further submissions on a torn journal.
	if _, _, err := q.Enqueue("acme", testMatrix(t, 72)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after crash = %v, want ErrClosed (queue must wedge)", err)
	}
	q.Kill()

	q2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	if q2.Stats().TornTails != 1 {
		t.Fatalf("stats = %+v, want TornTails=1", q2.Stats())
	}
	if jb, ok := q2.Get(acked.ID); !ok || jb.State != StateQueued {
		t.Fatalf("acked job after recovery = (%+v, %v), want queued", jb, ok)
	}
	q2.Start(rr.run)
	waitIdle(t, q2)
	if jb, _ := q2.Get(acked.ID); jb.State != StateDone {
		t.Fatalf("acked job = %+v, want done", jb)
	}
}

// TestDegradedDoneSurvivesCrashedDoneAppend: a degraded plan is never
// cached, so a degraded job's spooled matrix is the only way to plan it
// again. A crash while appending its done record must therefore leave the
// payload in place: after the restart the job replays to queued, runs once
// more and reaches done — it must not be parked dead for a missing payload.
func TestDegradedDoneSurvivesCrashedDoneAppend(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	rr := newRunRecorder(func(m *sparse.CSR) (*reorder.Result, error) {
		return degradedResult(m), nil
	})
	cfg := testConfig(t)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked, _, err := q.Enqueue("acme", testMatrix(t, 75))
	if err != nil {
		t.Fatal(err)
	}
	// The next append is the job's done record.
	fired := make(chan struct{})
	if err := faultinject.Arm(faultinject.JournalAppendWrite, faultinject.OnFire(func() { close(fired) })); err != nil {
		t.Fatal(err)
	}
	q.Start(rr.run)
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("the done append never ran")
	}
	q.Kill()
	faultinject.Reset()

	q2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	if jb, ok := q2.Get(acked.ID); !ok || jb.State != StateQueued {
		t.Fatalf("job whose done record tore = (%+v, %v), want queued", jb, ok)
	}
	q2.Start(rr.run)
	waitIdle(t, q2)
	if jb, _ := q2.Get(acked.ID); jb.State != StateDone || !jb.Degraded {
		t.Fatalf("job after restart = %+v, want done degraded", jb)
	}
	if n := rr.count(acked.Key); n != 2 {
		t.Fatalf("Run called %d times, want 2 (once per life)", n)
	}
}

func TestOrphanSpoolSweptOnOpen(t *testing.T) {
	cfg := testConfig(t)
	spool := filepath.Join(cfg.Dir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spool, "0123456789abcdef.bcsr")
	tornTemp := filepath.Join(spool, "feed.bcsr.tmp123")
	for _, p := range []string{orphan, tornTemp} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	for _, p := range []string{orphan, tornTemp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the open sweep", p)
		}
	}
}

func TestStableJobIDs(t *testing.T) {
	if id := jobID(7); id != "j-0000000007" {
		t.Fatalf("jobID(7) = %q", id)
	}
	if fmt.Sprintf("%s", jobID(12345)) != "j-0000012345" {
		t.Fatal("jobID format drifted; clients treat IDs as opaque but stable")
	}
}
