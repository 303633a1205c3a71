package planqueue_test

// These tests run jobs the way bootesd does, through planserve's RunJob, so
// the queue's retry, cache-completion and exactly-once behaviours are held
// on the real plan path rather than on a stub RunFunc.

import (
	"context"
	"sync"
	"testing"
	"time"

	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func testMatrix(seed int64) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 48, Cols: 48, Density: 0.08, Seed: seed, Groups: 4,
	})
}

// planCounter is a stub pipeline that counts calls per matrix key. plan
// chooses each attempt's result; nil plans a healthy row reversal.
type planCounter struct {
	mu   sync.Mutex
	runs map[string]int
	plan func(m *sparse.CSR, attempt int) *reorder.Result
}

func (pc *planCounter) fn(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
	pc.mu.Lock()
	if pc.runs == nil {
		pc.runs = make(map[string]int)
	}
	pc.runs[plancache.KeyCSR(m)]++
	pc.mu.Unlock()
	if pc.plan != nil {
		return pc.plan(m, attempt), nil
	}
	return reversal(m), nil
}

func (pc *planCounter) count(key string) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.runs[key]
}

func reversal(m *sparse.CSR) *reorder.Result {
	perm := make(sparse.Permutation, m.Rows)
	for i := range perm {
		perm[i] = int32(m.Rows - 1 - i)
	}
	return &reorder.Result{Perm: perm, Reordered: true, Extra: map[string]float64{"k": 8}}
}

func openCache(t testing.TB, dir string) *plancache.Cache {
	t.Helper()
	c, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startQueue opens a one-worker queue over dir and starts it with the RunJob
// of a server planning with pc over cache, as fleet.StartNode wires a node.
func startQueue(t testing.TB, dir string, cache *plancache.Cache, pc *planCounter) (*planqueue.Queue, *planserve.Server) {
	t.Helper()
	q, err := planqueue.Open(planqueue.Config{
		Dir:          dir,
		Workers:      1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := planserve.New(planserve.Config{
		Plan:       pc.fn,
		Cache:      cache,
		MaxRetries: 2,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Start(srv.RunJob)
	return q, srv
}

func waitIdle(t testing.TB, q *planqueue.Queue) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.WaitIdle(ctx); err != nil {
		t.Fatalf("queue never went idle: %v", err)
	}
}

// TestTransientDegradationRetries: a transiently degraded first attempt is
// retried by the server's retry loop inside one Run call, so the job is done
// healthy after one attempt and records no failure.
func TestTransientDegradationRetries(t *testing.T) {
	pc := &planCounter{plan: func(m *sparse.CSR, attempt int) *reorder.Result {
		if attempt == 0 {
			return &reorder.Result{
				Perm:           sparse.IdentityPerm(m.Rows),
				Degraded:       true,
				DegradedReason: "requested: eigensolver did not converge",
			}
		}
		return reversal(m)
	}}
	q, srv := startQueue(t, t.TempDir(), openCache(t, t.TempDir()), pc)
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", testMatrix(5))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != planqueue.StateDone || got.Degraded {
		t.Fatalf("job = %+v, want healthy done after a transient-degradation retry", got)
	}
	if got.Attempts != 1 || q.Stats().Failed != 0 {
		t.Fatalf("attempts = %d, failed = %d; want 1 and 0", got.Attempts, q.Stats().Failed)
	}
	if n := pc.count(jb.Key); n != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (attempts 0 and 1)", n)
	}
	if r := srv.Stats().Retries; r != 1 {
		t.Fatalf("server Retries = %d, want 1", r)
	}
}

func TestCompletionFromCacheSkipsPipeline(t *testing.T) {
	cache := openCache(t, t.TempDir())
	m := testMatrix(3)
	key := plancache.KeyCSR(m)
	if err := cache.Put(plancache.EntryFromResult(key, reversal(m))); err != nil {
		t.Fatal(err)
	}
	pc := &planCounter{}
	q, _ := startQueue(t, t.TempDir(), cache, pc)
	defer q.Kill()
	jb, _, err := q.Enqueue("acme", m)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, q)
	got, _ := q.Get(jb.ID)
	if got.State != planqueue.StateDone || !got.Cached || got.K != 8 {
		t.Fatalf("job = %+v, want done via cache with k=8", got)
	}
	if n := pc.count(key); n != 0 {
		t.Fatalf("pipeline ran %d times for a cached plan, want 0", n)
	}
	if s := q.Stats(); s.CachedDone != 1 {
		t.Fatalf("stats = %+v, want CachedDone=1", s)
	}
}

// TestCrashRecoveryExactlyOnce is the package-level exactly-once argument in
// miniature: kill the queue mid-stream, reopen over the same directory and
// cache, and verify that every acked job completes, jobs that finished before
// the crash never rerun the pipeline (RunJob's cache lookup), and no job is
// lost.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	pc := &planCounter{}
	queueDir, cacheDir := t.TempDir(), t.TempDir()
	q, _ := startQueue(t, queueDir, openCache(t, cacheDir), pc)
	var ids, keys []string
	for i := 0; i < 6; i++ {
		jb, _, err := q.Enqueue("acme", testMatrix(40+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jb.ID)
		keys = append(keys, jb.Key)
	}
	// Let some (not necessarily all) jobs finish, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Done < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	doneBefore := make(map[string]bool)
	for i, id := range ids {
		if jb, ok := q.Get(id); ok && jb.State == planqueue.StateDone {
			doneBefore[keys[i]] = true
		}
	}
	q.Kill()

	cache2 := openCache(t, cacheDir)
	q2, _ := startQueue(t, queueDir, cache2, pc)
	defer q2.Kill()
	waitIdle(t, q2)

	for i, id := range ids {
		jb, ok := q2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		if jb.State != planqueue.StateDone {
			t.Fatalf("job %s = %+v after recovery drain, want done", id, jb)
		}
		if _, ok := cache2.Get(keys[i]); !ok {
			t.Fatalf("plan for %s missing from cache after recovery", id)
		}
	}
	for key := range doneBefore {
		if n := pc.count(key); n != 1 {
			t.Fatalf("job finished before the crash ran the pipeline %d times total, want exactly 1 (cache lookup on replay)", n)
		}
	}
}
