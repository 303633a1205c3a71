package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bootes"
	"bootes/internal/faultinject"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// exitSentinel is what the swapped-in osExit panics with so a command under
// test unwinds instead of killing the test process.
type exitSentinel struct{ code int }

// runCLI runs fn with osExit captured and stdout redirected, returning the
// printed output, the exit code, and whether an exit was requested at all.
func runCLI(t *testing.T, fn func()) (out string, code int, exited bool) {
	t.Helper()
	oldExit := osExit
	osExit = func(c int) { panic(exitSentinel{c}) }
	oldStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() {
		os.Stdout = oldStdout
		osExit = oldExit
		w.Close()
		b, rerr := io.ReadAll(r)
		if rerr != nil {
			t.Fatal(rerr)
		}
		out = string(b)
		if p := recover(); p != nil {
			s, ok := p.(exitSentinel)
			if !ok {
				panic(p)
			}
			code, exited = s.code, true
		}
	}()
	fn()
	return
}

// testMatrixFile writes the canonical scrambled block-diagonal workload — a
// matrix the gate reliably chooses to reorder — as a temp .mtx file.
func testMatrixFile(t *testing.T) string {
	t.Helper()
	m := workloads.ScrambledBlock(workloads.Params{
		Rows: 48, Cols: 48, Density: 0.08, Seed: 1, Groups: 4,
	})
	path := filepath.Join(t.TempDir(), "a.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanReadsBCSRInProcess: without -server, plan reads a .bcsr file
// through the same decoder the daemon uses and plans it in-process.
func TestPlanReadsBCSRInProcess(t *testing.T) {
	text, err := os.ReadFile(testMatrixFile(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sparse.ReadMatrixMarket(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "a.bcsr")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteBinary(f, m); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, code, exited := runCLI(t, func() {
		cmdPlan([]string{"-in", in, "-timeout", "30s"})
	})
	if exited {
		t.Fatalf("plan exited with code %d\n%s", code, out)
	}
	if !strings.Contains(out, "key:       "+bootes.MatrixKey(m)) || !strings.Contains(out, "(computed,") {
		t.Fatalf("plan of a .bcsr file printed:\n%s", out)
	}
}

// TestReorderRejectsNonCandidateK: -k must be 0 or a candidate count; any
// other value exits 1 with an error naming the candidates and writes no
// output.
func TestReorderRejectsNonCandidateK(t *testing.T) {
	in := testMatrixFile(t)
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	for _, k := range []string{"-1", "1", "3", "301"} {
		logs.Reset()
		outPath := filepath.Join(t.TempDir(), "r.mtx")
		out, code, exited := runCLI(t, func() {
			cmdReorder([]string{"-in", in, "-out", outPath, "-k", k})
		})
		if !exited || code != 1 {
			t.Errorf("reorder -k %s: exited=%v code=%d, want exit 1\n%s", k, exited, code, out)
		}
		if !strings.Contains(logs.String(), "[2 4 8 16 32]") {
			t.Errorf("reorder -k %s: error does not name the candidates: %q", k, logs.String())
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Errorf("reorder -k %s wrote %s", k, outPath)
		}
	}
}

// TestLibraryErrorPrefixedOnce: a bootes package error reaches stderr with
// the program name once, not "bootes: bootes: ...".
func TestLibraryErrorPrefixedOnce(t *testing.T) {
	in := testMatrixFile(t)
	var logs bytes.Buffer
	flags, prefix := log.Flags(), log.Prefix()
	initLog()
	log.SetOutput(&logs)
	defer func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(flags)
		log.SetPrefix(prefix)
	}()
	_, code, exited := runCLI(t, func() {
		cmdReorder([]string{"-in", in, "-out", filepath.Join(t.TempDir(), "r.mtx"), "-k", "3"})
	})
	if !exited || code != 1 {
		t.Fatalf("reorder -k 3: exited=%v code=%d, want exit 1", exited, code)
	}
	got := logs.String()
	if !strings.HasPrefix(got, "bootes: ForceK 3 is not a candidate") || strings.Count(got, "bootes:") != 1 {
		t.Fatalf("stderr = %q, want one \"bootes: \" prefix before the error", got)
	}
}

func TestUsageExitsTwo(t *testing.T) {
	_, code, exited := runCLI(t, usage)
	if !exited || code != 2 {
		t.Fatalf("usage: exited=%v code=%d, want exit 2", exited, code)
	}
}

func TestAnalyzeStatsPrintsStageTable(t *testing.T) {
	in := testMatrixFile(t)
	out, code, exited := runCLI(t, func() {
		cmdAnalyze([]string{"-in", in, "-stats"})
	})
	if exited {
		t.Fatalf("healthy analyze exited with code %d\n%s", code, out)
	}
	for _, want := range []string{"decision:", "stage times:", "features", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze -stats output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeStrictExitsOnDegradedPlan(t *testing.T) {
	in := testMatrixFile(t)
	if err := faultinject.Arm(faultinject.EigenNoConverge, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	out, code, exited := runCLI(t, func() {
		cmdAnalyze([]string{"-in", in, "-strict"})
	})
	if !exited || code != 1 {
		t.Fatalf("strict analyze of degraded plan: exited=%v code=%d, want exit 1\n%s",
			exited, code, out)
	}
	// The identity plan is a fallback, not the gate's decision to decline.
	if !strings.Contains(out, "planning fell back to the identity order") || strings.Contains(out, "predicted benefit") {
		t.Errorf("analyze reported a degraded plan as a gate decline:\n%s", out)
	}

	// Without -strict the same degraded plan only warns.
	out, code, exited = runCLI(t, func() {
		cmdAnalyze([]string{"-in", in})
	})
	if exited {
		t.Fatalf("non-strict analyze exited with code %d\n%s", code, out)
	}
}

func TestCompareStrictExitsOnDegradedPlan(t *testing.T) {
	in := testMatrixFile(t)
	if err := faultinject.Arm(faultinject.EigenNoConverge, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	out, code, exited := runCLI(t, func() {
		cmdCompare([]string{"-in", in, "-strict"})
	})
	if !exited || code != 1 {
		t.Fatalf("strict compare with degraded bootes plan: exited=%v code=%d, want exit 1\n%s",
			exited, code, out)
	}
	// The comparison table itself still prints before the exit.
	for _, want := range []string{"method", "none", "bootes"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareStrictExitsOnCorruptPlan: compare plans its Bootes row through
// the verifier, as reorder does, so a plan the verifier rejects falls back to
// a degraded identity plan and -strict exits 1.
func TestCompareStrictExitsOnCorruptPlan(t *testing.T) {
	in := testMatrixFile(t)
	if err := faultinject.Arm(faultinject.PlanCorrupt, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	out, code, exited := runCLI(t, func() {
		cmdCompare([]string{"-in", in, "-strict"})
	})
	if !exited || code != 1 {
		t.Fatalf("strict compare with a corrupt bootes plan: exited=%v code=%d, want exit 1\n%s",
			exited, code, out)
	}
}

func TestCompareHealthyRunsClean(t *testing.T) {
	in := testMatrixFile(t)
	out, code, exited := runCLI(t, func() {
		cmdCompare([]string{"-in", in, "-strict"})
	})
	if exited {
		t.Fatalf("healthy strict compare exited with code %d\n%s", code, out)
	}
	if !strings.Contains(out, "vs none") {
		t.Errorf("compare output missing header:\n%s", out)
	}
}

// newRemoteTestClient builds a remoteClient the way planRemote does, against
// the given base URLs.
func newRemoteTestClient(bases []string, maxWait time.Duration) *remoteClient {
	return &remoteClient{
		bases:      bases,
		client:     &http.Client{},
		maxRetries: 5,
		rng:        rand.New(rand.NewSource(1)),
		ctx:        context.Background(),
		retryStop:  time.Now().Add(maxWait),
	}
}

// TestRemoteClientFailsOverOn5xx: a 500 from the preferred server moves the
// request to the next one in the list.
func TestRemoteClientFailsOverOn5xx(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"key":"k","reordered":true,"k":8}`)
	}))
	defer good.Close()

	c := newRemoteTestClient([]string{bad.URL, good.URL}, time.Minute)
	resp, body, _ := c.do(http.MethodPost, "/v1/plan", []byte("payload"), 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the failover target", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"reordered":true`) {
		t.Fatalf("unexpected body %q", body)
	}
}

// TestRemoteClientFollowsOwnerRedirect: a 307 from a fleet node is followed
// to the owner, re-sending the payload.
func TestRemoteClientFollowsOwnerRedirect(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if string(got) != "payload" {
			t.Errorf("redirected request body %q, want %q", got, "payload")
		}
		io.WriteString(w, `{"key":"k","reordered":true,"k":8}`)
	}))
	defer owner.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", owner.URL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	c := newRemoteTestClient([]string{front.URL}, time.Minute)
	resp, body, _ := c.do(http.MethodPost, "/v1/plan", []byte("payload"), 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after following the redirect", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"key":"k"`) {
		t.Fatalf("unexpected body %q", body)
	}
}

// TestRemoteClientRetryWallClockCap: a server that sheds forever with a long
// Retry-After cannot hold the client past its -max-wait budget.
func TestRemoteClientRetryWallClockCap(t *testing.T) {
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer shedder.Close()

	c := newRemoteTestClient([]string{shedder.URL}, 100*time.Millisecond)
	start := time.Now()
	resp, _, _ := c.do(http.MethodPost, "/v1/plan", []byte("payload"), 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the final 429 surfaced", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ran %s; the 100ms wall-clock budget did not cap it", elapsed)
	}
}

// TestPlanAsyncPollsAcceptingServer: an async job is polled on the server
// that accepted it. Job ids are per-node sequences, so the server that
// refused the submission may hold another job under the same id.
func TestPlanAsyncPollsAcceptingServer(t *testing.T) {
	const id = "j-0000000001"
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"job_id":"`+id+`","state":"done","plan":{"key":"someone-else","reordered":true,"k":8}}`)
	}))
	defer refusing.Close()
	accepting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"job_id":"`+id+`","state":"queued"}`)
			return
		}
		io.WriteString(w, `{"job_id":"`+id+`","state":"done","plan":{"key":"mine","reordered":true,"k":8}}`)
	}))
	defer accepting.Close()

	c := newRemoteTestClient([]string{refusing.URL, accepting.URL}, time.Minute)
	out, code, exited := runCLI(t, func() {
		planRemoteAsync(c, []byte("payload"), 5*time.Second, false)
	})
	if exited {
		t.Fatalf("async plan exited with code %d\n%s", code, out)
	}
	if !strings.Contains(out, "key:       mine") {
		t.Fatalf("async plan printed another server's job:\n%s", out)
	}
}

// TestPlanRemoteEndToEnd drives cmdPlan against a stub daemon, covering the
// multi-server flag parsing and ring preference path.
func TestPlanRemoteEndToEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"key":"feedc0de","reordered":true,"k":8,"cached":true}`)
	}))
	defer srv.Close()
	in := testMatrixFile(t)
	out, _, exited := runCLI(t, func() {
		cmdPlan([]string{"-in", in, "-server", srv.URL + "," + srv.URL, "-timeout", "5s"})
	})
	if exited {
		t.Fatalf("cmdPlan exited; output:\n%s", out)
	}
	if !strings.Contains(out, "feedc0de") || !strings.Contains(out, "cache hit") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
