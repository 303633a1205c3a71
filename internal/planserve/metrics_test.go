package planserve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"bootes/internal/core"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/plancache"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// runMetricsScenario drives one fixed planning request through a server whose
// registry uses the deterministic fake clock, under the given worker count,
// and returns the server registry's exposition. The pipeline's stage spans
// start and end on adjacent clock readings regardless of how many workers the
// stages fan out to, so the rendered text must be byte-identical for any
// worker count.
func runMetricsScenario(t *testing.T, workers int) string {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))

	reg := obs.NewRegistry()
	reg.SetNow(obs.Elapse(time.Unix(1700000000, 0), time.Millisecond))
	pipe := &core.Pipeline{ForceK: 2}
	pipe.Spectral.Seed = 1
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		return pipe.ReorderContext(ctx, m)
	}
	_, ts := newTestServer(t, Config{Plan: plan, Metrics: reg})

	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 1)), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// metricsGolden is the exact /metrics exposition of the scenario above:
// one healthy forced-k=2 plan, every stage exactly one fake-clock step (1ms).
const metricsGolden = `# HELP bootes_plan_rung_attempts_total Degradation-ladder rung attempts.
# TYPE bootes_plan_rung_attempts_total counter
bootes_plan_rung_attempts_total{rung="requested"} 1
# HELP bootes_plan_spans_open Stage spans currently open; zero when no plan is in flight.
# TYPE bootes_plan_spans_open gauge
bootes_plan_spans_open 0
# HELP bootes_plan_stage_seconds Wall-clock time per planning pipeline stage.
# TYPE bootes_plan_stage_seconds histogram
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="1e-05"} 0
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="0.0001"} 0
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="0.001"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="0.01"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="0.1"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="1"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="10"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="60"} 1
bootes_plan_stage_seconds_bucket{stage="eigensolve",le="+Inf"} 1
bootes_plan_stage_seconds_sum{stage="eigensolve"} 0.001
bootes_plan_stage_seconds_count{stage="eigensolve"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="1e-05"} 0
bootes_plan_stage_seconds_bucket{stage="features",le="0.0001"} 0
bootes_plan_stage_seconds_bucket{stage="features",le="0.001"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="0.01"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="0.1"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="1"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="10"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="60"} 1
bootes_plan_stage_seconds_bucket{stage="features",le="+Inf"} 1
bootes_plan_stage_seconds_sum{stage="features"} 0.001
bootes_plan_stage_seconds_count{stage="features"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="1e-05"} 0
bootes_plan_stage_seconds_bucket{stage="kmeans",le="0.0001"} 0
bootes_plan_stage_seconds_bucket{stage="kmeans",le="0.001"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="0.01"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="0.1"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="1"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="10"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="60"} 1
bootes_plan_stage_seconds_bucket{stage="kmeans",le="+Inf"} 1
bootes_plan_stage_seconds_sum{stage="kmeans"} 0.001
bootes_plan_stage_seconds_count{stage="kmeans"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="1e-05"} 0
bootes_plan_stage_seconds_bucket{stage="permute",le="0.0001"} 0
bootes_plan_stage_seconds_bucket{stage="permute",le="0.001"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="0.01"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="0.1"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="1"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="10"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="60"} 1
bootes_plan_stage_seconds_bucket{stage="permute",le="+Inf"} 1
bootes_plan_stage_seconds_sum{stage="permute"} 0.001
bootes_plan_stage_seconds_count{stage="permute"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="1e-05"} 0
bootes_plan_stage_seconds_bucket{stage="similarity",le="0.0001"} 0
bootes_plan_stage_seconds_bucket{stage="similarity",le="0.001"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="0.01"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="0.1"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="1"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="10"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="60"} 1
bootes_plan_stage_seconds_bucket{stage="similarity",le="+Inf"} 1
bootes_plan_stage_seconds_sum{stage="similarity"} 0.001
bootes_plan_stage_seconds_count{stage="similarity"} 1
# HELP bootes_plans_total Planning pipeline calls by outcome.
# TYPE bootes_plans_total counter
bootes_plans_total{outcome="healthy"} 1
# HELP bootes_serve_async_rejected_total Async submissions rejected by queue backlog bounds (429).
# TYPE bootes_serve_async_rejected_total counter
bootes_serve_async_rejected_total 0
# HELP bootes_serve_body_memo_hits_total Plan request bodies resolved from the body memo, without a parse.
# TYPE bootes_serve_body_memo_hits_total counter
bootes_serve_body_memo_hits_total 0
# HELP bootes_serve_body_memo_misses_total Plan request bodies the body memo did not know, parsed instead.
# TYPE bootes_serve_body_memo_misses_total counter
bootes_serve_body_memo_misses_total 1
# HELP bootes_serve_breaker_short_circuits_total Requests answered by the breaker's identity fast-path.
# TYPE bootes_serve_breaker_short_circuits_total counter
bootes_serve_breaker_short_circuits_total 0
# HELP bootes_serve_breaker_state Circuit breaker position: 0 closed, 1 open, 2 half-open.
# TYPE bootes_serve_breaker_state gauge
bootes_serve_breaker_state 0
# HELP bootes_serve_breaker_trips_total Circuit breaker closed-to-open transitions.
# TYPE bootes_serve_breaker_trips_total counter
bootes_serve_breaker_trips_total 0
# HELP bootes_serve_coalesced_total Requests that rode a concurrent identical flight.
# TYPE bootes_serve_coalesced_total counter
bootes_serve_coalesced_total 0
# HELP bootes_serve_degraded_total Responses carrying a degraded plan.
# TYPE bootes_serve_degraded_total counter
bootes_serve_degraded_total 0
# HELP bootes_serve_draining 1 while graceful shutdown is in progress.
# TYPE bootes_serve_draining gauge
bootes_serve_draining 0
# HELP bootes_serve_inflight Pipelines currently executing.
# TYPE bootes_serve_inflight gauge
bootes_serve_inflight 0
# HELP bootes_serve_latency_seconds End-to-end /v1/plan request latency by outcome (ok, shed, error).
# TYPE bootes_serve_latency_seconds histogram
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.00025"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.0005"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.001"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.0025"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.005"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.01"} 0
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.025"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.05"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.1"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.25"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="0.5"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="1"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="2.5"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="5"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="10"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="30"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="60"} 1
bootes_serve_latency_seconds_bucket{outcome="ok",le="+Inf"} 1
bootes_serve_latency_seconds_sum{outcome="ok"} 0.011
bootes_serve_latency_seconds_count{outcome="ok"} 1
# HELP bootes_serve_peer_fills_total Local cache misses answered by a fleet sibling's cache.
# TYPE bootes_serve_peer_fills_total counter
bootes_serve_peer_fills_total 0
# HELP bootes_serve_queued Requests waiting for an in-flight slot.
# TYPE bootes_serve_queued gauge
bootes_serve_queued 0
# HELP bootes_serve_retries_total Serve-level pipeline re-runs of transiently degraded plans.
# TYPE bootes_serve_retries_total counter
bootes_serve_retries_total 0
# HELP bootes_serve_served_total Completed /v1/plan responses.
# TYPE bootes_serve_served_total counter
bootes_serve_served_total 1
# HELP bootes_serve_shed_total Requests shed by admission control (429).
# TYPE bootes_serve_shed_total counter
bootes_serve_shed_total 0
# HELP bootes_serve_verify_violations_total Plan-verification violations observed by this server.
# TYPE bootes_serve_verify_violations_total counter
bootes_serve_verify_violations_total 0
# HELP bootes_serve_warming 1 while start-up warm-up holds readiness at 503.
# TYPE bootes_serve_warming gauge
bootes_serve_warming 0
# HELP bootes_similarity_mode_total Spectral passes by similarity construction tier.
# TYPE bootes_similarity_mode_total counter
bootes_similarity_mode_total{mode="implicit"} 1
`

// TestMetricsGolden pins the full exposition of a fixed fake-clock scenario:
// the bytes must not drift across runs or worker counts. A legitimate metric
// change updates the golden deliberately.
func TestMetricsGolden(t *testing.T) {
	for _, workers := range []int{1, 8} {
		got := runMetricsScenario(t, workers)
		if got != metricsGolden {
			t.Errorf("workers=%d: exposition drifted from golden:\n--- got ---\n%s", workers, got)
		}
	}
}

// TestMetricsEndpointServesMergedExposition checks GET /metrics includes the
// server families and parses as well-formed exposition lines.
func TestMetricsEndpointServesMergedExposition(t *testing.T) {
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn()})
	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 3)), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "bootes_serve_served_total 1\n") {
		t.Errorf("served counter missing from /metrics:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

var sampleLineRE = regexp.MustCompile(`^[a-z0-9_]+(\{[^}]*\})? -?[0-9+.eInf-]+$`)

// metricNameRE is the repo's naming contract: bootes-prefixed lowercase with
// an optional unit/kind suffix.
var metricNameRE = regexp.MustCompile(`^bootes_[a-z0-9_]+(_total|_seconds|_bytes)?$`)

// TestMetricNameLint walks every family registered by a full serving scenario
// (server registry and the process Default) and enforces the naming scheme
// and histogram bucket invariants: monotone bounds and a trailing +Inf in
// the rendered exposition.
func TestMetricNameLint(t *testing.T) {
	reg := obs.NewRegistry()
	pipe := &core.Pipeline{ForceK: 2}
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		return pipe.ReorderContext(ctx, m)
	}
	dir := t.TempDir()
	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: plan, Metrics: reg, Cache: cache})
	if resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 2)), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	for _, r := range []*obs.Registry{reg, obs.Default()} {
		for _, fam := range r.Snapshot() {
			if !metricNameRE.MatchString(fam.Name) {
				t.Errorf("metric %q violates naming scheme %s", fam.Name, metricNameRE)
			}
			switch fam.Type {
			case obs.TypeCounter:
				if !strings.HasSuffix(fam.Name, "_total") {
					t.Errorf("counter %q must end in _total", fam.Name)
				}
			case obs.TypeHistogram:
				if !strings.HasSuffix(fam.Name, "_seconds") && !strings.HasSuffix(fam.Name, "_bytes") {
					t.Errorf("histogram %q must end in a unit suffix", fam.Name)
				}
				if len(fam.Buckets) == 0 {
					t.Errorf("histogram %q has no buckets", fam.Name)
				}
				for i := 1; i < len(fam.Buckets); i++ {
					if fam.Buckets[i] <= fam.Buckets[i-1] {
						t.Errorf("histogram %q buckets not monotone: %v", fam.Name, fam.Buckets)
					}
				}
			}
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		// Every rendered histogram series must close with a +Inf bucket: as
		// many +Inf lines as _count lines, per family.
		for _, fam := range r.Snapshot() {
			if fam.Type != obs.TypeHistogram {
				continue
			}
			counts := strings.Count(out, fam.Name+"_count")
			infs := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, fam.Name+"_bucket") && strings.Contains(line, `le="+Inf"`) {
					infs++
				}
			}
			if infs != counts {
				t.Errorf("histogram %q: %d +Inf bucket lines for %d series", fam.Name, infs, counts)
			}
		}
	}
}

// TestStatszShapePinned is the migration back-compat pin: the /statsz JSON
// document must keep exactly the pre-migration key set and reflect the same
// counts the instruments hold. Decoding into a strict struct catches removed
// or renamed fields; the key-set check catches additions.
func TestStatszShapePinned(t *testing.T) {
	p := &countingPlanner{}
	dir := t.TempDir()
	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	m := testMatrix(t, 5)
	for i := 0; i < 2; i++ { // second request is a cache hit
		if resp, body := postPlan(t, ts.URL, mmBody(t, m), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	r, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}

	wantKeys := []string{
		"Served", "Shed", "Coalesced", "Degraded", "BreakerShortCircuits",
		"Retries", "VerifyViolations", "TenantShed", "AsyncRejected", "PeerFills",
		"InFlight", "Queued", "Draining",
		"Breaker", "BreakerTrips", "Cache",
		// "Queue" is omitempty and absent here: this server runs without an
		// async queue, and the pin asserts exactly that.
	}
	if len(raw) != len(wantKeys) {
		t.Errorf("statsz has %d keys, want %d: %v", len(raw), len(wantKeys), keysOf(raw))
	}
	for _, k := range wantKeys {
		if _, ok := raw[k]; !ok {
			t.Errorf("statsz missing key %q", k)
		}
	}
	var cacheRaw map[string]json.RawMessage
	if err := json.Unmarshal(raw["Cache"], &cacheRaw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Entries", "Hits", "Misses", "Puts", "WriteErrors", "Quarantined"} {
		if _, ok := cacheRaw[k]; !ok {
			t.Errorf("statsz Cache missing key %q", k)
		}
	}

	// Field-for-field: the HTTP document equals the in-process Stats() which
	// equals the instruments' own readings.
	var doc Stats
	full, _ := json.Marshal(raw)
	if err := json.Unmarshal(full, &doc); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	if doc != want {
		t.Errorf("statsz document %+v != Stats() %+v", doc, want)
	}
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"Served", doc.Served, 2},
		{"Shed", doc.Shed, 0},
		{"Coalesced", doc.Coalesced, 0},
		{"Degraded", doc.Degraded, 0},
		{"Retries", doc.Retries, 0},
		{"InFlight", doc.InFlight, 0},
		{"Queued", doc.Queued, 0},
		{"Cache.Hits", doc.Cache.Hits, 1},
		{"Cache.Puts", doc.Cache.Puts, 1},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
