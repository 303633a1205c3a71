package bootes

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bootes/internal/faultinject"
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
