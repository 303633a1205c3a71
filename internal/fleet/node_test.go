package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestStandaloneNodeServesDrainsAndRestartsFromCache: a node with a cache
// and an async queue but no peers — bootesd's single-node shape — serves a
// sync plan and an async job, drains on Close, and after a restart on the
// same directories serves both plans from cache.
func TestStandaloneNodeServesDrainsAndRestartsFromCache(t *testing.T) {
	var computes atomic.Int64
	dir := t.TempDir()
	nd, err := StartNode(listen(t), NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: filepath.Join(dir, "cache"),
		Queue:    planqueue.Config{Dir: filepath.Join(dir, "queue")},
		Logf:     t.Logf,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close(context.Background())
	if nd.Router() != nil || nd.Healer() != nil {
		t.Fatal("a node without peers built a router or healer")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	syncBody, asyncBody := mmBody(t, testMatrix(t, 31)), mmBody(t, testMatrix(t, 32))
	if resp, pr := postPlan(t, client, nd.URL, syncBody); resp.StatusCode != http.StatusOK || pr.Cached || !pr.Reordered {
		t.Fatalf("sync plan: status %d cached=%v reordered=%v", resp.StatusCode, pr.Cached, pr.Reordered)
	}
	runJob(t, client, nd.URL, asyncBody)

	if err := nd.Close(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if nd.Alive() {
		t.Fatal("node alive after Close")
	}
	if err := nd.Restart(); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections() // pooled connections died with the old listener
	for name, body := range map[string][]byte{"sync": syncBody, "async": asyncBody} {
		if resp, pr := postPlan(t, client, nd.URL, body); resp.StatusCode != http.StatusOK || !pr.Cached {
			t.Errorf("%s plan after restart: status %d cached=%v", name, resp.StatusCode, pr.Cached)
		}
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("%d pipeline runs, want 2 (one per matrix)", n)
	}
}

// runJob submits body as an async job to the node at url and polls it until
// it is done.
func runJob(t testing.TB, client *http.Client, url string, body []byte) planserve.JobResponse {
	t.Helper()
	return waitJob(t, client, url, submitJob(t, client, url, body))
}

// submitJob submits body as an async job to the node at url.
func submitJob(t testing.TB, client *http.Client, url string, body []byte) planserve.JobResponse {
	t.Helper()
	resp, err := client.Post(url+"/v1/plan?async=1", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job planserve.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("async submit: status %d, %v", resp.StatusCode, err)
	}
	return job
}

// waitJob polls job on the node at url until it is done.
func waitJob(t testing.TB, client *http.Client, url string, job planserve.JobResponse) planserve.JobResponse {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); job.State != string(planqueue.StateDone); {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%s)", job.JobID, job.State, job.Reason)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := client.Get(url + "/v1/jobs/" + job.JobID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return job
}

// TestAsyncWorkersDefaultToServingInFlight: a node whose Serve and Queue set
// no sizes runs as many async jobs at once as planserve's default MaxInFlight
// (4), the queue's documented default, not the queue package's own.
func TestAsyncWorkersDefaultToServingInFlight(t *testing.T) {
	const want = 4
	var mu sync.Mutex
	var running, peak int
	overlapped := make(chan struct{})
	stub := countingPlan(new(atomic.Int64))
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		mu.Lock()
		running++
		if running > peak {
			if peak = running; peak == want {
				close(overlapped)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			running--
			mu.Unlock()
		}()
		// Hold the run until enough runs overlap; a node with fewer workers
		// gets there only by the timeout.
		select {
		case <-overlapped:
		case <-time.After(3 * time.Second):
		case <-ctx.Done():
		}
		return stub(ctx, m, attempt)
	}
	dir := t.TempDir()
	nd, err := StartNode(listen(t), NodeConfig{
		Serve:    planserve.Config{Plan: plan},
		CacheDir: filepath.Join(dir, "cache"),
		Queue:    planqueue.Config{Dir: filepath.Join(dir, "queue")},
		Logf:     t.Logf,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close(context.Background())
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	var jobs []planserve.JobResponse
	for seed := int64(50); seed < 56; seed++ {
		jobs = append(jobs, submitJob(t, client, nd.URL, mmBody(t, testMatrix(t, seed))))
	}
	for _, job := range jobs {
		waitJob(t, client, nd.URL, job)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != want {
		t.Errorf("at most %d async jobs ran at once, want %d", peak, want)
	}
}

// TestAsyncJobPeerFills: an async job on a node that does not own its matrix
// completes from the owner's cache by peer fill, with no pipeline run —
// async jobs keep the fleet's compute-once rule as sync requests do.
func TestAsyncJobPeerFills(t *testing.T) {
	var computes atomic.Int64
	dir := t.TempDir()
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: filepath.Join(dir, "cache"),
		Queue:    planqueue.Config{Dir: filepath.Join(dir, "queue")},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 33))
	key := keyMust(t, body)
	owner := c.Nodes[0].Router().Ring().Owner(key)
	if resp, _ := postPlan(t, client, owner, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming owner: status %d", resp.StatusCode)
	}
	var other *Node
	for _, nd := range c.Nodes {
		if nd.URL != owner {
			other = nd
		}
	}
	if job := runJob(t, client, other.URL, body); job.Plan == nil || !job.Plan.Cached {
		t.Errorf("job plan %+v, want one found without computing", job.Plan)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed %d times, want 1 (fill, not recompute)", n)
	}
	if st := other.Server().Stats(); st.PeerFills != 1 {
		t.Errorf("job node PeerFills = %d, want 1", st.PeerFills)
	}
	if _, ok := other.Cache().Peek(key); !ok {
		t.Error("peer-filled entry was not copied into the job node's cache")
	}
}

// TestSelfHealReplicatesAsyncJobPlan: with self-healing on, the plan an async
// job computes is on the key's other replica by the time the job reads done —
// the job persists and replicates exactly as a sync request does.
func TestSelfHealReplicatesAsyncJobPlan(t *testing.T) {
	var computes atomic.Int64
	dir := t.TempDir()
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: filepath.Join(dir, "cache"),
		Queue:    planqueue.Config{Dir: filepath.Join(dir, "queue")},
		SelfHeal: true,
		// No repair round or scrub tick runs during the test: only the
		// job's replication can move the entry.
		Heal: antientropy.Config{RepairInterval: time.Hour, ScrubInterval: time.Hour},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := mmBody(t, testMatrix(t, 34))
	key := keyMust(t, body)
	reps := c.Nodes[0].Router().Ring().Replicas(key, 2) // fleet default
	runJob(t, client, reps[0], body)
	if _, ok := nodeByURL(t, c, reps[1]).Cache().Peek(key); !ok {
		t.Errorf("replica %s lacks the async job's plan when the job reads done", reps[1])
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("fleet computed %d times, want 1", n)
	}
}

// TestStartNodeRejectsMissingPrerequisites: configurations that cannot work
// fail with an error, before anything is opened, and the listener is closed.
func TestStartNodeRejectsMissingPrerequisites(t *testing.T) {
	dir := t.TempDir()
	peers := Config{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}}
	for name, cfg := range map[string]NodeConfig{
		"queue without cache":     {Queue: planqueue.Config{Dir: filepath.Join(dir, "queue")}},
		"self-heal without peers": {CacheDir: filepath.Join(dir, "cache"), SelfHeal: true},
		"self-heal without cache": {Fleet: peers, SelfHeal: true},
	} {
		cfg.Serve.Plan = countingPlan(new(atomic.Int64))
		ln := listen(t)
		nd, err := StartNode(ln, cfg, true)
		if err == nil {
			nd.Close(context.Background())
			t.Errorf("%s: node started", name)
			continue
		}
		if !strings.Contains(err.Error(), "requires") {
			t.Errorf("%s: error %q does not name the missing prerequisite", name, err)
		}
		if ln.Close() == nil {
			t.Errorf("%s: listener left open", name)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("rejected configurations created %d directories", len(ents))
	}
}

// TestLaunchClusterFailureClosesListeners: a launch that fails at its first
// node closes every listener it bound, the failing node's and the later
// ones'.
func TestLaunchClusterFailureClosesListeners(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	listen(t).Close() // the network poller's own descriptors exist from here on
	before := openFDs()
	if _, err := LaunchCluster(3, NodeConfig{CacheDir: t.TempDir()}); err == nil {
		t.Fatal("a cluster without a Plan launched")
	}
	if after := openFDs(); after > before {
		t.Errorf("%d descriptors left open by the failed launch", after-before)
	}
}

// TestSelfHealCloseHandsOffSoleEntries: a self-healing member's graceful
// Close pushes the entries only it holds to the key's other replicas before
// its listener closes.
func TestSelfHealCloseHandsOffSoleEntries(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(&computes)},
		CacheDir: t.TempDir(),
		SelfHeal: true,
		// No repair round or scrub tick runs during the test: only the drain
		// push can move the entry.
		Heal: antientropy.Config{RepairInterval: time.Hour, ScrubInterval: time.Hour},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaving := c.Nodes[0]
	const replicas = 2 // fleet default

	// A key whose replica set includes the leaving node, held only there.
	var key string
	var others []string
	for seed := int64(40); key == ""; seed++ {
		k := plancache.KeyCSR(testMatrix(t, seed))
		reps := leaving.Router().Ring().Replicas(k, replicas)
		for i, u := range reps {
			if u == leaving.URL {
				key, others = k, append(append([]string(nil), reps[:i]...), reps[i+1:]...)
			}
		}
	}
	perm := make(sparse.Permutation, 48)
	for i := range perm {
		perm[i] = int32(len(perm) - 1 - i)
	}
	if err := leaving.Cache().Put(&plancache.Entry{Key: key, Perm: perm, Reordered: true, K: 8}); err != nil {
		t.Fatal(err)
	}
	for _, u := range others {
		if _, ok := nodeByURL(t, c, u).Cache().Peek(key); ok {
			t.Fatalf("precondition: %s already holds the entry", u)
		}
	}

	if err := leaving.Close(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, u := range others {
		if _, ok := nodeByURL(t, c, u).Cache().Peek(key); !ok {
			t.Errorf("replica %s did not receive the leaving node's sole entry", u)
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("%d pipeline runs, want 0", n)
	}
}

// TestStartupLogNamesServingSettings: the "serving on" line reports the
// settings the node serves with, planserve's defaults applied.
func TestStartupLogNamesServingSettings(t *testing.T) {
	var mu sync.Mutex
	var logs strings.Builder
	nd, err := StartNode(listen(t), NodeConfig{
		Serve: planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if want := "(inflight=4 queue=8, deadline=1m0s,"; !strings.Contains(logs.String(), want) {
		t.Errorf("start-up log lacks %q:\n%s", want, logs.String())
	}
}

// TestNegativeMaxRetriesDisablesRetriesOnNode: a node started with a
// Serve.MaxRetries of 0 or below serves a transiently degraded plan from its
// one pipeline run, however often the serving defaults are applied on the
// way: MaxRetries is a count, and no default replaces a zero.
func TestNegativeMaxRetriesDisablesRetriesOnNode(t *testing.T) {
	for _, retries := range []int{-1, 0} {
		t.Run(fmt.Sprint(retries), func(t *testing.T) {
			var runs atomic.Int64
			plan := func(_ context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
				runs.Add(1)
				return &reorder.Result{
					Perm:           sparse.IdentityPerm(m.Rows),
					Degraded:       true,
					DegradedReason: "requested: eigensolver did not converge; fell back to identity",
				}, nil
			}
			nd, err := StartNode(listen(t), NodeConfig{
				Serve: planserve.Config{Plan: plan, MaxRetries: retries},
				Logf:  t.Logf,
			}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer nd.Close(context.Background())
			client := &http.Client{Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			resp, pr := postPlan(t, client, nd.URL, mmBody(t, testMatrix(t, 1)))
			if resp.StatusCode != http.StatusOK || !pr.Degraded {
				t.Fatalf("status %d, degraded %v; want the degraded plan served", resp.StatusCode, pr.Degraded)
			}
			if n := runs.Load(); n != 1 {
				t.Errorf("pipeline ran %d times, want 1: MaxRetries %d disables retries", n, retries)
			}
		})
	}
}

// TestUploadDeadlineCutsOffSlowBodies: a plan request whose body trickles in
// is cut off near UploadReadTimeout on a standalone node, and on a fleet node
// whether a client or a forward sends it.
func TestUploadDeadlineCutsOffSlowBodies(t *testing.T) {
	const timeout = 300 * time.Millisecond
	cfg := NodeConfig{
		Serve:             planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		UploadReadTimeout: timeout,
		Logf:              t.Logf,
	}
	single, err := StartNode(listen(t), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close(context.Background())
	cfg.CacheDir = t.TempDir()
	c, err := LaunchCluster(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		name, url string
		header    string
	}{
		{"single node", single.URL, ""},
		{"fleet client", c.Nodes[0].URL, ""},
		{"fleet forward", c.Nodes[0].URL, planserve.ForwardedHeader + ": 1\r\n"},
	} {
		if took := trickleBody(t, tc.url, tc.header); took < timeout || took > timeout+time.Second {
			t.Errorf("%s: a body trickling one byte per 50ms was cut off after %s, want about %s", tc.name, took, timeout)
		}
	}
}

// trickleBody POSTs a plan request to url that declares a megabyte body and
// sends one byte of it every 50ms for up to 3s, and returns how long the
// server took to answer or close the connection.
func trickleBody(t *testing.T, url, header string) time.Duration {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /v1/plan HTTP/1.1\r\nHost: bootes\r\nContent-Type: text/plain\r\nContent-Length: 1048576\r\n%s\r\n", header); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for i := 0; i < 60; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{'%'}); err != nil {
				return
			}
		}
	}()
	_ = conn.SetReadDeadline(start.Add(5 * time.Second))
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
		resp.Body.Close()
	}
	return time.Since(start)
}
