package bootes

import (
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/planverify"
	"bootes/internal/workloads"
)

// permInvalidAtPlan is the bootes_verify_violations_total series an injected
// corruption ticks at the planning site.
func permInvalidAtPlan() *obs.Counter {
	return obs.Default().CounterVec(obs.VerifyViolationsName, "", "site", "code").
		With(planverify.SitePlan, planverify.CodePermInvalid)
}

// verifyMatrix is small enough that arming faults per-subtest stays cheap but
// structured enough that the gate reorders it.
func verifyMatrix(t *testing.T) *Matrix {
	t.Helper()
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 256, Cols: 256, Density: 0.04, Seed: 17, Groups: 4,
	})
}

// TestVerifyCatchesInjectedCorruptionAtPlan is the acceptance check for the
// first wiring site: with the PlanCorrupt point armed, the verifier inside
// PlanContext must catch the corrupted permutation, fall back to a marked
// identity plan, and record the violation under the planning site.
func TestVerifyCatchesInjectedCorruptionAtPlan(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := verifyMatrix(t)
	before := permInvalidAtPlan().Value()
	if err := faultinject.Arm(faultinject.PlanCorrupt, faultinject.Times(1)); err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(m, &Options{ForceReorder: true, ForceK: 8, Seed: 3})
	if err != nil {
		t.Fatalf("corruption must degrade, not error: %v", err)
	}
	if !plan.Degraded || !strings.Contains(plan.DegradedReason, "plan verification failed") {
		t.Fatalf("corrupt plan served: Degraded=%v reason=%q", plan.Degraded, plan.DegradedReason)
	}
	if plan.Reordered || plan.K != 0 {
		t.Fatalf("fallback is not identity: Reordered=%v K=%d", plan.Reordered, plan.K)
	}
	if err := plan.Perm.Validate(m.Rows); err != nil {
		t.Fatalf("fallback permutation invalid: %v", err)
	}
	for i, v := range plan.Perm {
		if v != int32(i) {
			t.Fatalf("fallback perm not identity at %d", i)
		}
	}
	if permInvalidAtPlan().Value() <= before {
		t.Fatal("violation not recorded under the planning site")
	}

	// The fault was Times(1) and is now spent: the same call comes back clean.
	clean, err := Plan(m, &Options{ForceReorder: true, ForceK: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded || !clean.Reordered {
		t.Fatalf("healthy replan after the fault: Degraded=%v Reordered=%v", clean.Degraded, clean.Reordered)
	}
}

// TestVerifyCorruptPlanNeverCached: with corruption injected and a cache
// attached, the degraded fallback must not be persisted — on any of the
// verification paths (the plan site and the cache-put site both fire).
func TestVerifyCorruptPlanNeverCached(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := verifyMatrix(t)
	cache, err := OpenPlanCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.PlanCorrupt, faultinject.Always()); err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(m, &Options{ForceReorder: true, ForceK: 8, Seed: 3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded {
		t.Fatal("corrupt plan served as healthy")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("degraded fallback reached the cache: %+v", st)
	}
}

// TestVerifyTrafficRegressionFallsBack: the never-regress invariant. A banded
// matrix is already in its best order; forcing the traffic check against a
// gate-approved-looking reordering must be impossible here (Force* disables
// the check), so instead drive VerifyResult's wiring indirectly: a default
// Plan on a banded matrix must simply not reorder — and whatever the gate
// decides, the returned plan must carry no traffic regression.
func TestVerifyTrafficRegressionFallsBack(t *testing.T) {
	m := workloads.Banded(workloads.Params{Rows: 512, Cols: 512, Density: 0.01, Seed: 9})
	plan, err := Plan(m, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reordered {
		// The gate approved a reordering on a banded matrix; the verifier's
		// traffic check must then have proven it does not regress.
		if v := planverify.CheckTraffic(m, plan.Perm, nil); v != nil {
			t.Fatalf("served plan regresses traffic: %v", v)
		}
	}
}
