package bootes

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/workloads"
)

func TestPlanContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := PlanContext(ctx, demoMatrix(t), &Options{ForceReorder: true, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanContext = (%v, %v), want context.Canceled", plan, err)
	}
}

func TestPlanContextMatchesPlan(t *testing.T) {
	m := demoMatrix(t)
	opts := &Options{ForceReorder: true, ForceK: 8, Seed: 5}
	p1, err := Plan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanContext(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Degraded || p2.Degraded {
		t.Fatalf("healthy plans must not be Degraded (%v, %v)", p1.Degraded, p2.Degraded)
	}
	if p1.K != p2.K || len(p1.Perm) != len(p2.Perm) {
		t.Fatal("Plan and PlanContext disagree on shape")
	}
	for i := range p1.Perm {
		if p1.Perm[i] != p2.Perm[i] {
			t.Fatalf("permutations diverge at %d", i)
		}
	}
}

func TestPlanDegradesUnderInjectedFaults(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.EigenNoConverge, faultinject.Always())
	m := demoMatrix(t)
	plan, err := Plan(m, &Options{ForceReorder: true, ForceK: 8, Seed: 5})
	if err != nil {
		t.Fatalf("plan errored instead of degrading: %v", err)
	}
	if !plan.Degraded || plan.DegradedReason == "" {
		t.Fatalf("want a degraded plan with a reason, got Degraded=%v reason=%q",
			plan.Degraded, plan.DegradedReason)
	}
	if err := plan.Perm.Validate(m.Rows); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
	}
	// A degraded plan is still fully usable.
	pm, err := plan.Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Rows != m.Rows {
		t.Fatal("applied plan changed the matrix shape")
	}
}

func TestPlanWallClockBudget(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// A stalled worker parks until its context is done: the deadline passes
	// mid-plan.
	faultinject.Arm(faultinject.WorkerStall, faultinject.Always())
	m := demoMatrix(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	plan, err := PlanContext(ctx, m, &Options{ForceReorder: true, ForceK: 8, Seed: 5})
	if err != nil {
		t.Fatalf("a passed deadline must degrade, not error: %v", err)
	}
	if !plan.Degraded || !strings.Contains(plan.DegradedReason, "wall-clock budget exhausted") {
		t.Fatalf("want a wall-clock degradation, got Degraded=%v reason=%q", plan.Degraded, plan.DegradedReason)
	}
	if err := plan.Perm.Validate(m.Rows); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
	}
}

// TestForceKMustBeACandidate: a ForceK that is neither 0 nor one of
// CandidateKs is an error naming the candidates, returned before anything is
// planned or cached, whether it is below every candidate, between two, above
// the row count or negative.
func TestForceKMustBeACandidate(t *testing.T) {
	m := workloads.ScrambledBlock(workloads.Params{Rows: 300, Cols: 300, Density: 0.03, Seed: 11, Groups: 4})
	cache, err := OpenPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 1, 3, 301} {
		plan, err := PlanContext(context.Background(), m, &Options{Seed: 1, ForceK: k, ForceReorder: true, Cache: cache})
		if err == nil {
			t.Errorf("ForceK %d: got a plan (k=%d degraded=%v reason=%q), want an error",
				k, plan.K, plan.Degraded, plan.DegradedReason)
			continue
		}
		if !strings.Contains(err.Error(), "[2 4 8 16 32]") {
			t.Errorf("ForceK %d: error %q does not name the candidates", k, err)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("rejected ForceK values left %d cache entries", cache.Len())
	}
	for _, k := range []int{0, 2, 32} {
		if plan, err := PlanContext(context.Background(), m, &Options{Seed: 1, ForceK: k, ForceReorder: true}); err != nil || plan.Degraded {
			t.Errorf("ForceK %d: err=%v, want a healthy plan", k, err)
		}
	}
}
