package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// smallMatrix is cheap enough to plan hundreds of times in the concurrent
// cancellation stress test.
func smallMatrix(seed int64) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 256, Cols: 256, Density: 0.02, Seed: seed, Groups: 4,
	})
}

func TestPipelineReorderContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 1}}
	start := time.Now()
	res, err := p.ReorderContext(ctx, blockMatrix(1, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReorderContext = (%v, %v), want context.Canceled", res, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled plan took %v; must return before doing real work", elapsed)
	}
}

func TestInjectedNoConvergeDegradesToImplicit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.EigenNoConverge) // fires once: first rung only
	a := blockMatrix(1, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3, Similarity: SimExact}}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("plan errored instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Fatal("injected non-convergence did not mark the plan Degraded")
	}
	if !strings.Contains(res.DegradedReason, "did not converge") {
		t.Errorf("DegradedReason %q does not mention non-convergence", res.DegradedReason)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatalf("degraded plan has invalid permutation: %v", err)
	}
	if !res.Reordered {
		t.Error("implicit-similarity rung should still produce a real reordering")
	}
}

func TestInjectedFaultsFallToIdentity(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.EigenNoConverge, faultinject.Always())
	a := blockMatrix(2, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3, Similarity: SimExact}}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("plan errored instead of degrading to identity: %v", err)
	}
	if !res.Degraded || res.DegradedReason == "" {
		t.Fatalf("want Degraded with a reason, got Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatalf("identity fallback has invalid permutation: %v", err)
	}
	if !res.Perm.IsIdentity() {
		t.Error("with every rung blocked the plan must be the identity")
	}
	if res.Reordered {
		t.Error("identity fallback must report Reordered=false")
	}
}

func TestWallClockBudgetDegradesNotErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// A stalled worker parks until its context is done, so every spectral
	// pass outlives a deadline still ahead of it: it passes mid-plan.
	faultinject.Arm(faultinject.WorkerStall, faultinject.Always())
	a := blockMatrix(6, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3}}
	for _, tc := range []struct {
		when    string
		timeout time.Duration
	}{{"mid-plan", 20 * time.Millisecond}, {"on entry", -time.Second}} {
		ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
		res, err := p.ReorderContext(ctx, a)
		cancel()
		if err != nil {
			t.Fatalf("%s: a passed deadline must degrade, not error: %v", tc.when, err)
		}
		if !res.Degraded || !strings.Contains(res.DegradedReason, "wall-clock") {
			t.Fatalf("%s: want wall-clock degradation, got Degraded=%v reason=%q", tc.when, res.Degraded, res.DegradedReason)
		}
		if err := res.Perm.Validate(a.Rows); err != nil {
			t.Fatalf("%s: degraded plan invalid: %v", tc.when, err)
		}
		if !res.Perm.IsIdentity() {
			t.Errorf("%s: a plan that ran out of time must be the identity", tc.when)
		}
	}
}

func TestContainedPanicDescendsLadder(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// The injection callback panics inside the first rung's eigensolve; the
	// ladder must contain it and succeed on the next rung.
	faultinject.Arm(faultinject.EigenNoConverge, faultinject.OnFire(func() {
		panic("injected eigensolver panic")
	}))
	a := blockMatrix(7, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3, Similarity: SimExact}}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("panic escaped or plan errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("a contained panic must mark the plan Degraded")
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatalf("post-panic plan invalid: %v", err)
	}
}

func TestAttemptSpectralContainsPanic(t *testing.T) {
	// A nil matrix makes the spectral pass dereference nil: the guard must
	// convert that into ErrInternalPanic instead of crashing the caller.
	_, err := attemptSpectral(context.Background(), SpectralOptions{K: 4}, nil)
	if !errors.Is(err, ErrInternalPanic) {
		t.Fatalf("attemptSpectral(nil matrix) = %v, want ErrInternalPanic", err)
	}
}

func TestSweepCancelInjection(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The injected fault cancels the context at the start of the first k's
	// work — a mid-sweep cancellation at the worst possible moment.
	faultinject.Arm(faultinject.SweepCancel, faultinject.OnFire(cancel))
	a := blockMatrix(8, 8)
	_, err := SpectralSweepContext(ctx, a, []int{2, 4, 8}, SpectralOptions{Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SpectralSweepContext = %v, want context.Canceled", err)
	}
}

func TestReorderContextMatchesReorderWhenHealthy(t *testing.T) {
	a := blockMatrix(9, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3}}
	r1, err := p.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Degraded || r2.Degraded {
		t.Fatalf("healthy plans must not be Degraded (got %v, %v)", r1.Degraded, r2.Degraded)
	}
	if r1.DegradedReason != "" || r2.DegradedReason != "" {
		t.Fatal("healthy plans must have empty DegradedReason")
	}
	if len(r1.Perm) != len(r2.Perm) {
		t.Fatal("permutation lengths differ")
	}
	for i := range r1.Perm {
		if r1.Perm[i] != r2.Perm[i] {
			t.Fatalf("Reorder and ReorderContext(Background) diverge at %d: %d vs %d",
				i, r1.Perm[i], r2.Perm[i])
		}
	}
}

func TestRecursiveReorderContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Recursive{K: 4, MaxClusterRows: 64}
	_, err := r.ReorderContext(ctx, blockMatrix(10, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Recursive.ReorderContext = %v, want context.Canceled", err)
	}
}

// TestConcurrentCancelledPlans drives ~100 plans whose contexts cancel at
// staggered points mid-flight. Run under -race (the Makefile race target
// covers this package) it verifies the pool drains workers and returns
// scratch buffers without data races or leaked goroutines blocking exit.
func TestConcurrentCancelledPlans(t *testing.T) {
	a := smallMatrix(11)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%4 == 0 {
				cancel() // pre-cancelled
			} else {
				time.AfterFunc(time.Duration(i%7)*time.Millisecond, cancel)
			}
			p := &Pipeline{ForceReorder: true, ForceK: 4, Spectral: SpectralOptions{Seed: int64(i)}}
			res, err := p.ReorderContext(ctx, a)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("plan %d: unexpected error %v", i, err)
				}
				return
			}
			// The plan may have finished before its cancel fired; it must
			// then be fully valid.
			if vErr := res.Perm.Validate(a.Rows); vErr != nil {
				t.Errorf("plan %d: completed plan invalid: %v", i, vErr)
			}
		}(i)
	}
	wg.Wait()
}
