package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"bootes/internal/planqueue"
	"bootes/internal/planserve"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// buildDaemon builds the bootesd binary into dir and returns its path.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(dir, "bootesd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagSet pins the daemon's flags: adding or removing a knob must show
// up as an edit to this list.
func TestFlagSet(t *testing.T) {
	bin := buildDaemon(t, t.TempDir())
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("bootesd -h: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			got = append(got, name)
		}
	}
	slices.Sort(got)
	want := []string{
		"addr", "allow-path", "breaker-cooldown", "breaker-failures",
		"cache", "deadline", "down-after", "drain", "hedge-after",
		"idle-timeout", "max-inflight", "max-queue", "max-upload-bytes", "model",
		"peers", "pprof", "probe-interval", "probe-timeout", "queue-dir",
		"queue-max", "queue-max-tenant", "queue-workers", "read-header-timeout", "read-timeout",
		"repair-interval", "replicas", "retries", "scrub-interval", "seed",
		"self", "self-heal", "tenant-burst", "tenant-rate", "upload-timeout",
		"warmup-deadline",
	}
	if !slices.Equal(got, want) {
		t.Errorf("bootesd -h lists %d flags %v,\nwant %d %v", len(got), got, len(want), want)
	}
}

// TestDaemonPlansAndDrainsOnSIGTERM builds the bootesd binary, starts it on
// a free port with a plan cache and an async queue, plans one matrix
// synchronously and one through ?async=1, and expects SIGTERM to drain it to
// exit status 0.
func TestDaemonPlansAndDrainsOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	bin := buildDaemon(t, dir)

	// Port 0 picks a free port; the "serving on" log line names it.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-cache", filepath.Join(dir, "plans"), "-queue-dir", filepath.Join(dir, "queue"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	logs := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && logs.Scan() {
		t.Log(logs.Text())
		if _, rest, ok := strings.Cut(logs.Text(), "serving on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatal("bootesd exited before serving")
	}
	var tail strings.Builder // the log after "serving on"
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		for logs.Scan() {
			tail.WriteString(logs.Text() + "\n")
		}
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	post := func(query string, seed int64) *http.Response {
		t.Helper()
		var body bytes.Buffer
		m := workloads.ScrambledBlock(workloads.Params{Rows: 48, Cols: 48, Density: 0.08, Seed: seed, Groups: 4})
		if err := sparse.WriteMatrixMarket(&body, m); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/v1/plan"+query, "text/plain", &body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response, want int, v any) {
		t.Helper()
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, data)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%v: %s", err, data)
		}
	}

	var plan planserve.PlanResponse
	decode(post("", 1), http.StatusOK, &plan)
	if plan.Rows != 48 || plan.Degraded {
		t.Fatalf("sync plan: rows=%d degraded=%v", plan.Rows, plan.Degraded)
	}
	var job planserve.JobResponse
	decode(post("?async=1", 2), http.StatusAccepted, &job)
	for deadline := time.Now().Add(30 * time.Second); job.State != string(planqueue.StateDone); {
		if time.Now().After(deadline) || job.State == string(planqueue.StateDead) {
			t.Fatalf("async job %s: state %q %s", job.JobID, job.State, job.Reason)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := client.Get(base + "/v1/jobs/" + job.JobID)
		if err != nil {
			t.Fatal(err)
		}
		decode(resp, http.StatusOK, &job)
	}
	if job.Plan == nil || job.Plan.Rows != 48 {
		t.Fatalf("done job carries no plan: %+v", job)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-logDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("bootesd after SIGTERM: %v\n%s", err, tail.String())
	}
	for _, want := range []string{"draining", "stopped"} {
		if !strings.Contains(tail.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, tail.String())
		}
	}
}

// TestFIPSOnlyModeRefusedAtStart starts the binary under
// GODEBUG=fips140=only, where Go refuses GCM under a caller-chosen nonce, and
// expects it to exit non-zero at start naming that refusal: the body memo
// keys repeat bodies by a GCM tag and has no other fingerprint to fall back
// to.
func TestFIPSOnlyModeRefusedAtStart(t *testing.T) {
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-cache", filepath.Join(dir, "plans"))
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() <= 0 {
		t.Fatalf("bootesd under fips140=only: %v (context %v), want a non-zero exit at start\n%s", err, ctx.Err(), out)
	}
	for _, want := range []string{"body memo", "GCM", "FIPS 140-only mode"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("start-up error lacks %q:\n%s", want, out)
		}
	}
}
