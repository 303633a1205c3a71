package planserve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootes"
	"bootes/internal/faultinject"
	"bootes/internal/plancache"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// fakeClock is an injectable clock so cooldown expiry is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBreakerUnitStateMachine drives the breaker directly through
// closed → open → half-open → closed and the probe-failure re-open.
func TestBreakerUnitStateMachine(t *testing.T) {
	clock := newFakeClock()
	b := newBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second}, clock.now)

	if run, probe := b.Allow(); !run || probe {
		t.Fatal("closed breaker must admit normally")
	}
	b.Record(false, false)
	if st, _ := b.Snapshot(); st != BreakerClosed {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.Record(true, false) // success resets the consecutive count
	b.Record(false, false)
	if st, _ := b.Snapshot(); st != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Record(false, false)
	if st, trips := b.Snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("state=%v trips=%d after threshold failures, want open/1", st, trips)
	}

	// Open within the cooldown: fast-path only.
	clock.advance(9 * time.Second)
	if run, _ := b.Allow(); run {
		t.Fatal("open breaker admitted a pipeline run inside the cooldown")
	}
	// Cooldown elapsed: exactly one probe, concurrent requests stay shed.
	clock.advance(2 * time.Second)
	run, probe := b.Allow()
	if !run || !probe {
		t.Fatalf("allow after cooldown = (%v, %v), want a probe", run, probe)
	}
	if run, _ := b.Allow(); run {
		t.Fatal("second concurrent probe admitted")
	}
	// A cancelled probe frees the slot for the next request.
	b.CancelProbe()
	if run, probe := b.Allow(); !run || !probe {
		t.Fatal("probe slot not released by cancelProbe")
	}
	// Probe failure re-opens and restarts the cooldown.
	b.Record(false, true)
	if st, trips := b.Snapshot(); st != BreakerOpen || trips != 2 {
		t.Fatalf("state=%v trips=%d after failed probe, want open/2", st, trips)
	}
	clock.advance(11 * time.Second)
	if run, probe := b.Allow(); !run || !probe {
		t.Fatal("no probe after second cooldown")
	}
	b.Record(true, true)
	if st, _ := b.Snapshot(); st != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	// A stale failure recorded after recovery must not instantly re-trip.
	b.Record(false, false)
	if st, _ := b.Snapshot(); st != BreakerClosed {
		t.Fatal("single post-recovery failure re-tripped a threshold-2 breaker")
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	b := newBreaker(BreakerConfig{}, nil)
	for i := 0; i < 10; i++ {
		b.Record(false, false)
	}
	if run, _ := b.Allow(); !run {
		t.Fatal("zero-threshold breaker must never open")
	}
}

// TestBreakerTripHalfOpenRecover exercises the full serving-path sequence
// with an injectable clock and faultinject's probe-failure point:
// consecutive hard-degraded plans trip the breaker, open serves marked
// identity plans without running the pipeline, the post-cooldown probe is
// forced to fail once (re-open), then allowed to succeed (closed).
func TestBreakerTripHalfOpenRecover(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	clock := newFakeClock()
	var healthy atomic.Bool
	p := &countingPlanner{}
	p.make = func(m *sparse.CSR, _ int) (*reorder.Result, error) {
		if healthy.Load() {
			return healthyResult(m), nil
		}
		return degradedResult(m, "requested: eigensolver did not converge; fell back to identity"), nil
	}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Plan:    p.fn(),
		Cache:   cache,
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second},
		Now:     clock.now,
	})

	post := func(seed int64) (int, string) {
		resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, seed)), "")
		return resp.StatusCode, body
	}

	// Two consecutive hard-degraded plans trip the breaker.
	for seed := int64(1); seed <= 2; seed++ {
		code, body := post(seed)
		if code != http.StatusOK || !strings.Contains(body, `"degraded":true`) {
			t.Fatalf("request %d: %d %s", seed, code, body)
		}
	}
	if st := s.Stats(); st.Breaker != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after threshold failures: breaker=%s trips=%d", st.Breaker, st.BreakerTrips)
	}

	// Open: identity fast-path — marked, served without a pipeline run,
	// never cached.
	code, body := post(3)
	if code != http.StatusOK || !strings.Contains(body, `"breaker":"open"`) {
		t.Fatalf("open-breaker response: %d %s", code, body)
	}
	if !strings.Contains(body, `"degraded":true`) || !strings.Contains(body, "circuit breaker open") {
		t.Fatalf("fast-path plan not marked degraded: %s", body)
	}
	if p.totalRuns() != 2 {
		t.Fatalf("pipeline ran %d times; the open breaker must not run it", p.totalRuns())
	}
	if cache.Len() != 0 {
		t.Fatal("a breaker identity plan (or a degraded plan) was cached")
	}
	if st := s.Stats(); st.BreakerShortCircuits != 1 {
		t.Fatalf("BreakerShortCircuits = %d, want 1", st.BreakerShortCircuits)
	}

	// Cooldown elapses; the pipeline is healthy again, but the injected
	// fault forces the half-open probe to be recorded as a failure.
	clock.advance(11 * time.Second)
	healthy.Store(true)
	faultinject.Arm(faultinject.BreakerProbeFail)
	code, body = post(4)
	if code != http.StatusOK || strings.Contains(body, `"degraded":true`) {
		// The probe's actual plan is healthy and is still what the client gets;
		// only the breaker's accounting is poisoned.
		t.Fatalf("probe response: %d %s", code, body)
	}
	if p.totalRuns() != 3 {
		t.Fatalf("probe did not run the pipeline (runs=%d)", p.totalRuns())
	}
	if st := s.Stats(); st.Breaker != "open" || st.BreakerTrips != 2 {
		t.Fatalf("after failed probe: breaker=%s trips=%d, want open/2", st.Breaker, st.BreakerTrips)
	}
	// Still short-circuiting.
	if _, body := post(5); !strings.Contains(body, `"breaker":"open"`) {
		t.Fatalf("re-opened breaker not short-circuiting: %s", body)
	}

	// Second cooldown, no injected fault: the probe succeeds and closes.
	clock.advance(11 * time.Second)
	code, body = post(6)
	if code != http.StatusOK || strings.Contains(body, `"breaker"`) {
		t.Fatalf("recovery probe: %d %s", code, body)
	}
	if st := s.Stats(); st.Breaker != "closed" || st.BreakerTrips != 2 {
		t.Fatalf("after successful probe: breaker=%s trips=%d, want closed/2", st.Breaker, st.BreakerTrips)
	}
	// Normal service resumed: the pipeline runs and healthy plans cache again.
	if code, _ := post(7); code != http.StatusOK {
		t.Fatal("post-recovery request failed")
	}
	if p.totalRuns() != 5 {
		t.Fatalf("runs = %d after recovery, want 5", p.totalRuns())
	}
	if cache.Len() == 0 {
		t.Fatal("healthy post-recovery plans are not being cached")
	}
}

// TestBreakerEndToEndRealPipeline drives the breaker through the real
// planning pipeline: faultinject's eigensolver fault makes every plan fall
// down the ladder to a hard degradation, tripping the breaker; disarming it
// lets the half-open probe genuinely recover.
func TestBreakerEndToEndRealPipeline(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	clock := newFakeClock()
	plan := func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		p, err := bootes.PlanContext(ctx, m, &bootes.Options{
			Seed: 1 + int64(attempt)*0x9E3779B9, ForceReorder: true, ForceK: 4,
		})
		if err != nil {
			return nil, err
		}
		return &reorder.Result{
			Perm:           p.Perm,
			Reordered:      p.Reordered,
			Degraded:       p.Degraded,
			DegradedReason: p.DegradedReason,
			Extra:          map[string]float64{"k": float64(p.K)},
		}, nil
	}
	s, ts := newTestServer(t, Config{
		Plan:    plan,
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: 5 * time.Second},
		Now:     clock.now,
	})

	faultinject.Arm(faultinject.EigenNoConverge, faultinject.Always())
	for seed := int64(1); seed <= 2; seed++ {
		resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, seed)), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", seed, resp.StatusCode, body)
		}
		if !strings.Contains(body, "did not converge") {
			t.Fatalf("ladder did not report eigensolver failure: %s", body)
		}
	}
	if st := s.Stats(); st.Breaker != "open" {
		t.Fatalf("breaker = %s after repeated ladder falls, want open", st.Breaker)
	}
	hitsWhenOpen := faultinject.Hits(faultinject.EigenNoConverge)
	if resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 3)), ""); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"breaker":"open"`) {
		t.Fatalf("open breaker: %d %s", resp.StatusCode, body)
	}
	if faultinject.Hits(faultinject.EigenNoConverge) != hitsWhenOpen {
		t.Fatal("short-circuited request still reached the eigensolver")
	}

	// Heal the pipeline and let the probe through.
	faultinject.Disarm(faultinject.EigenNoConverge)
	clock.advance(6 * time.Second)
	resp, body := postPlan(t, ts.URL, mmBody(t, testMatrix(t, 4)), "")
	if resp.StatusCode != http.StatusOK || strings.Contains(body, `"degraded":true`) {
		t.Fatalf("recovery probe: %d %s", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Breaker != "closed" {
		t.Fatalf("breaker = %s after healthy probe, want closed", st.Breaker)
	}
}
