package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func fakeReg() *Registry {
	r := NewRegistry()
	r.SetNow(Elapse(time.Unix(1700000000, 0), time.Millisecond))
	return r
}

func TestStartStageRecordsTraceAndHistogram(t *testing.T) {
	r := fakeReg()
	tr := r.NewTrace()
	ctx := WithTrace(context.Background(), tr)

	end := StartStage(ctx, StageEigensolve)
	if got := r.Gauge(SpansOpenName, "").Value(); got != 1 {
		t.Fatalf("spans open = %d, want 1 mid-stage", got)
	}
	end()
	end() // idempotent: double close must not double-record

	if got := r.Gauge(SpansOpenName, "").Value(); got != 0 {
		t.Fatalf("spans open = %d, want 0 after close", got)
	}
	rep := tr.Report()
	if len(rep) != 1 || rep[0].Stage != StageEigensolve {
		t.Fatalf("trace report = %+v", rep)
	}
	// Fake clock: one step between start and end = exactly 1ms.
	if rep[0].Seconds != 0.001 {
		t.Fatalf("stage seconds = %v, want 0.001", rep[0].Seconds)
	}
	h := r.HistogramVec(StageSecondsName, "", StageSecondsBuckets, "stage").With(StageEigensolve)
	if h.Count() != 1 || h.Sum() != 0.001 {
		t.Fatalf("histogram count=%d sum=%v, want 1/0.001", h.Count(), h.Sum())
	}
}

func TestStartStageWithoutTrace(t *testing.T) {
	r := fakeReg()
	ctx := WithRegistry(context.Background(), r)
	end := StartStage(ctx, StageKMeans)
	end()
	h := r.HistogramVec(StageSecondsName, "", StageSecondsBuckets, "stage").With(StageKMeans)
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1 (registry-only path)", h.Count())
	}
}

func TestRegistryFromPrecedence(t *testing.T) {
	ctxReg, traceReg := NewRegistry(), NewRegistry()
	ctx := WithRegistry(context.Background(), ctxReg)
	if RegistryFrom(ctx) != ctxReg {
		t.Fatal("context registry not resolved")
	}
	ctx = WithTrace(ctx, traceReg.NewTrace())
	if RegistryFrom(ctx) != traceReg {
		t.Fatal("trace registry must take precedence")
	}
	if RegistryFrom(context.Background()) != Default() {
		t.Fatal("bare context must resolve to Default")
	}
}

func TestTraceTable(t *testing.T) {
	r := fakeReg()
	tr := r.NewTrace()
	ctx := WithTrace(context.Background(), tr)
	// Out of pipeline order, with a repeat and an unknown stage: the table
	// must print canonical order, sum repeats, and append unknowns.
	StartStage(ctx, StageKMeans)()
	StartStage(ctx, StageFeatures)()
	StartStage(ctx, StageFeatures)()
	StartStage(ctx, "custom")()

	table := tr.Table()
	fi := strings.Index(table, "features")
	ki := strings.Index(table, "kmeans")
	ci := strings.Index(table, "custom")
	ti := strings.Index(table, "total")
	if !(fi >= 0 && fi < ki && ki < ci && ci < ti) {
		t.Fatalf("table order wrong:\n%s", table)
	}
	if !strings.Contains(table, "(2 runs)") {
		t.Fatalf("repeated stage not annotated:\n%s", table)
	}
	if !strings.Contains(table, "0.004000s") { // 4 spans × 1ms
		t.Fatalf("total not summed:\n%s", table)
	}
}

func TestPlanOutcomeAndRungCounters(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	PlanOutcome(ctx, OutcomeHealthy)
	PlanOutcome(ctx, OutcomeDegraded)
	PlanOutcome(ctx, OutcomeDegraded)
	RungAttempt(ctx, "requested")
	RungFailure(ctx, "requested")
	RungAttempt(ctx, "retry-loose")

	if got := r.CounterVec(plansName, "", "outcome").With(OutcomeDegraded).Value(); got != 2 {
		t.Errorf("degraded outcomes = %d, want 2", got)
	}
	if got := r.CounterVec(rungAttemptsName, "", "rung").With("requested").Value(); got != 1 {
		t.Errorf("requested attempts = %d, want 1", got)
	}
	if got := r.CounterVec(rungFailuresName, "", "rung").With("requested").Value(); got != 1 {
		t.Errorf("requested failures = %d, want 1", got)
	}
}

func TestVerifyViolationMirror(t *testing.T) {
	before := Default().CounterVec(VerifyViolationsName, "", "site", "code").
		With("test-site", "test-code").Value()
	VerifyViolation("test-site", "test-code", 3)
	after := Default().CounterVec(VerifyViolationsName, "", "site", "code").
		With("test-site", "test-code").Value()
	if after-before != 3 {
		t.Fatalf("verify mirror delta = %d, want 3", after-before)
	}
}
