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

// runRecorder is a RunFunc that counts pipeline invocations per matrix key.
type runRecorder struct {
	mu    sync.Mutex
	runs  map[string]int
	order []string // keys in execution order
	fn    func(key string, attempt int, m *sparse.CSR) (*reorder.Result, error)
}

func newRunRecorder(fn func(key string, attempt int, m *sparse.CSR) (*reorder.Result, error)) *runRecorder {
	if fn == nil {
		fn = func(_ string, _ int, m *sparse.CSR) (*reorder.Result, error) {
			return healthyResult(m), nil
		}
	}
	return &runRecorder{runs: make(map[string]int), fn: fn}
}

func (rr *runRecorder) run(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := plancache.KeyCSR(m)
	rr.mu.Lock()
	rr.runs[key]++
	rr.order = append(rr.order, key)
	rr.mu.Unlock()
	return rr.fn(key, attempt, m)
}

func (rr *runRecorder) count(key string) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.runs[key]
}

func testConfig(t testing.TB, rr *runRecorder) Config {
	t.Helper()
	return Config{
		Dir:          t.TempDir(),
		Run:          rr.run,
		Workers:      1,
		RetryBackoff: time.Millisecond,
		RunTimeout:   5 * time.Second,
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
	cfg := testConfig(t, rr)
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()

	m := testMatrix(t, 1)
	jb, dup, err := q.Enqueue("acme", m, "opts-v1")
	if err != nil || dup {
		t.Fatalf("Enqueue = (%+v, dup=%v, %v)", jb, dup, err)
	}
	if jb.State != StateQueued || jb.ID == "" {
		t.Fatalf("fresh job = %+v, want queued with an ID", jb)
	}
	q.Start()
	waitIdle(t, q)

	got, ok := q.Get(jb.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("job after drain = (%+v, %v), want done", got, ok)
	}
	if !got.Reordered || got.K != 8 || got.Attempts != 1 {
		t.Fatalf("job summary = %+v, want reordered k=8 attempts=1", got)
	}
	if _, ok := cache.Get(jb.Key); !ok {
		t.Fatal("completed plan missing from the plan cache")
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
	rr := newRunRecorder(nil)
	q, err := Open(testConfig(t, rr))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	m := testMatrix(t, 2)
	a, _, err := q.Enqueue("acme", m, "opts-v1")
	if err != nil {
		t.Fatal(err)
	}
	b, dup, err := q.Enqueue("acme", m, "opts-v1")
	if err != nil || !dup || b.ID != a.ID {
		t.Fatalf("identical submission = (%+v, dup=%v, %v), want dup of %s", b, dup, err, a.ID)
	}
	// Different options are a different plan: no dedupe.
	c, dup, err := q.Enqueue("acme", m, "opts-v2")
	if err != nil || dup || c.ID == a.ID {
		t.Fatalf("different-options submission = (%+v, dup=%v, %v), want a fresh job", c, dup, err)
	}
	if s := q.Stats(); s.Deduped != 1 || s.Enqueued != 2 {
		t.Fatalf("stats = %+v, want 2 enqueued 1 deduped", s)
	}
}

func TestCompletionFromCacheSkipsPipeline(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	m := testMatrix(t, 3)
	key := plancache.KeyCSR(m)
	if err := cache.Put(plancache.EntryFromResult(key, healthyResult(m))); err != nil {
		t.Fatal(err)
	}
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", m, "")
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDone || !got.Cached {
		t.Fatalf("job = %+v, want done via cache", got)
	}
	if n := rr.count(key); n != 0 {
		t.Fatalf("pipeline ran %d times for a cached plan, want 0", n)
	}
	if s := q.Stats(); s.CachedDone != 1 {
		t.Fatalf("stats = %+v, want CachedDone=1", s)
	}
}

func TestRetriesThenDead(t *testing.T) {
	rr := newRunRecorder(func(string, int, *sparse.CSR) (*reorder.Result, error) {
		return nil, errors.New("solver exploded")
	})
	cfg := testConfig(t, rr)
	cfg.MaxAttempts = 3
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", testMatrix(t, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDead {
		t.Fatalf("poisoned job state = %s, want dead", got.State)
	}
	if got.Attempts != 3 || !strings.Contains(got.Reason, "solver exploded") {
		t.Fatalf("dead job = %+v, want 3 attempts with the failure reason", got)
	}
	if n := rr.count(jb.Key); n != 3 {
		t.Fatalf("pipeline ran %d times, want exactly MaxAttempts=3 (dead jobs are never retried hot)", n)
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

func TestTransientDegradationRetries(t *testing.T) {
	m := testMatrix(t, 5)
	rr := newRunRecorder(func(_ string, attempt int, m *sparse.CSR) (*reorder.Result, error) {
		if attempt == 0 {
			return &reorder.Result{
				Perm:           sparse.IdentityPerm(m.Rows),
				Degraded:       true,
				DegradedReason: "eigensolve did not converge",
			}, nil
		}
		return healthyResult(m), nil
	})
	cfg := testConfig(t, rr)
	cfg.MaxAttempts = 3
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", m, "")
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDone || got.Degraded {
		t.Fatalf("job = %+v, want healthy done after a transient-degradation retry", got)
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", got.Attempts)
	}
}

func TestDeterministicDegradationCompletesDegraded(t *testing.T) {
	rr := newRunRecorder(func(_ string, _ int, m *sparse.CSR) (*reorder.Result, error) {
		return &reorder.Result{
			Perm:           sparse.IdentityPerm(m.Rows),
			Degraded:       true,
			DegradedReason: "memory budget: traffic regression predicted",
		}, nil
	})
	q, err := Open(testConfig(t, rr))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", testMatrix(t, 6), "")
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != StateDone || !got.Degraded {
		t.Fatalf("job = %+v, want done degraded (input-inherent degradation is not retried)", got)
	}
	if n := rr.count(jb.Key); n != 1 {
		t.Fatalf("pipeline ran %d times for a deterministic degradation, want 1", n)
	}
}

func TestBacklogBounds(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
	cfg.MaxQueued = 3
	cfg.MaxQueuedPerTenant = 2
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	if _, _, err := q.Enqueue("acme", testMatrix(t, 10), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 11), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 12), ""); !errors.Is(err, ErrTenantBacklog) {
		t.Fatalf("third acme job error = %v, want ErrTenantBacklog", err)
	}
	if _, _, err := q.Enqueue("globex", testMatrix(t, 13), ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("initech", testMatrix(t, 14), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-global-bound job error = %v, want ErrQueueFull", err)
	}
}

// TestWeightedFairOrder pins the WFQ dequeue order: with weights
// {light:1, heavy:3} and both backlogs enqueued up front, a single worker
// must serve roughly three heavy jobs per light job — the heavy tenant's
// backlog cannot starve the light one, and the weights hold.
func TestWeightedFairOrder(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
	cfg.Weights = map[string]float64{"heavy": 3, "light": 1}
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()

	tenantOf := make(map[string]string)
	for i := 0; i < 4; i++ {
		jb, _, err := q.Enqueue("light", testMatrix(t, 100+int64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[jb.Key] = "light"
	}
	for i := 0; i < 12; i++ {
		jb, _, err := q.Enqueue("heavy", testMatrix(t, 200+int64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[jb.Key] = "heavy"
	}
	q.Start()
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
	cfg := testConfig(t, rr)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(t, 20+int64(i)), "")
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
	if _, _, err := q.Enqueue("acme", testMatrix(t, 99), ""); !errors.Is(err, ErrClosed) {
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
	q2.Start()
	waitIdle(t, q2)
	for _, id := range ids {
		if jb, _ := q2.Get(id); jb.State != StateDone {
			t.Fatalf("job %s = %+v, want done after restart drain", id, jb)
		}
	}
}

// TestCrashRecoveryExactlyOnce is the package-level exactly-once argument in
// miniature: kill the queue mid-stream, reopen over the same directory and
// cache, and verify that every acked job completes, jobs that finished before
// the crash never rerun the pipeline (plan-cache dedupe), and no job is lost.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
	cacheDir := t.TempDir()
	cache, err := plancache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var keys []string
	for i := 0; i < 6; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(t, 40+int64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
		keys = append(keys, jb.Key)
	}
	q.Start()
	// Let some (not necessarily all) jobs finish, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Done < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	doneBefore := make(map[string]bool)
	for i, id := range ids {
		if jb, ok := q.Get(id); ok && jb.State == StateDone {
			doneBefore[keys[i]] = true
		}
	}
	q.Kill()

	cache2, err := plancache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache2
	q2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	q2.Start()
	waitIdle(t, q2)

	for i, id := range ids {
		jb, ok := q2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		if jb.State != StateDone {
			t.Fatalf("job %s = %+v after recovery drain, want done", id, jb)
		}
		if _, ok := cache2.Get(keys[i]); !ok {
			t.Fatalf("plan for %s missing from cache after recovery", id)
		}
	}
	for key, done := range doneBefore {
		if !done {
			continue
		}
		if n := rr.count(key); n != 1 {
			t.Fatalf("job finished before the crash ran the pipeline %d times total, want exactly 1 (cache dedupe on replay)", n)
		}
	}
}

func TestCompactionBoundsJournal(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
	cfg.CompactEvery = 5
	cfg.RetainTerminal = 4
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	q.Start()
	var ids []string
	for i := 0; i < 20; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(t, 300+int64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
	}
	waitIdle(t, q)
	s := q.Stats()
	if s.Compactions == 0 {
		t.Fatalf("no compactions after 20 terminal jobs with CompactEvery=5: %+v", s)
	}
	// Retention: the newest terminal jobs stay queryable, the oldest age out.
	if _, ok := q.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest terminal job evicted")
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest terminal job still resident beyond RetainTerminal")
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
	cfg := testConfig(t, rr)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	if _, _, err := q.Enqueue("acme", testMatrix(t, 60), ""); err != nil {
		t.Fatal(err)
	}
	q.Start()
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
	cfg := testConfig(t, rr)
	q, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked, _, err := q.Enqueue("acme", testMatrix(t, 70), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.JournalAppendWrite); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Enqueue("acme", testMatrix(t, 71), ""); !errors.Is(err, ErrJournalCrash) {
		t.Fatalf("enqueue under injected crash = %v, want ErrJournalCrash", err)
	}
	// The queue wedged itself: no further submissions on a torn journal.
	if _, _, err := q.Enqueue("acme", testMatrix(t, 72), ""); !errors.Is(err, ErrClosed) {
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
	q2.Start()
	waitIdle(t, q2)
	if jb, _ := q2.Get(acked.ID); jb.State != StateDone {
		t.Fatalf("acked job = %+v, want done", jb)
	}
}

func TestOrphanSpoolSweptOnOpen(t *testing.T) {
	rr := newRunRecorder(nil)
	cfg := testConfig(t, rr)
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
