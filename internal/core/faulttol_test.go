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
	faultinject.Arm(faultinject.AllocCapBreach, faultinject.Always())
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

func TestAllocCapBreachSkipsOneRung(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.AllocCapBreach) // fires once: skips the requested rung
	a := blockMatrix(4, 8)
	p := &Pipeline{ForceReorder: true, ForceK: 8, Spectral: SpectralOptions{Seed: 3, Similarity: SimExact}}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("plan errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("memory-cap breach on the first rung must mark the plan Degraded")
	}
	if !strings.Contains(res.DegradedReason, "memory estimate") {
		t.Errorf("DegradedReason %q does not mention the memory estimate", res.DegradedReason)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
	}
	if !res.Reordered {
		t.Error("the implicit rung should still reorder after one skipped rung")
	}
}

func TestTinyMemoryBudgetFallsToIdentity(t *testing.T) {
	a := blockMatrix(5, 8)
	p := &Pipeline{
		ForceReorder: true, ForceK: 8,
		Spectral: SpectralOptions{Seed: 3, Similarity: SimExact},
		Budget:   Budget{MaxFootprintBytes: 64},
	}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("plan errored: %v", err)
	}
	if !res.Degraded || !res.Perm.IsIdentity() {
		t.Fatalf("64-byte budget must yield a degraded identity plan, got Degraded=%v identity=%v",
			res.Degraded, res.Perm.IsIdentity())
	}
	if !strings.Contains(res.DegradedReason, "over budget") {
		t.Errorf("DegradedReason %q does not mention the budget", res.DegradedReason)
	}
}

func TestWallClockBudgetDegradesNotErrors(t *testing.T) {
	a := blockMatrix(6, 8)
	p := &Pipeline{
		ForceReorder: true, ForceK: 8,
		Spectral: SpectralOptions{Seed: 3},
		Budget:   Budget{MaxWallClock: time.Nanosecond},
	}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("an expired wall-clock budget must degrade, not error: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "wall-clock") {
		t.Fatalf("want wall-clock degradation, got Degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
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

func TestFootprintEstimateBoundsRealizedModel(t *testing.T) {
	// The budget check runs before anything is allocated, so its estimate
	// must never undercount the model the finished pass reports. Both go
	// through spectralFootprint, with the solver's term from
	// eigen.ModeledBytes (basis plus Ritz block).
	a := blockMatrix(6, 8)
	for _, mode := range []SimilarityMode{SimAuto, SimExact, SimBitset, SimApprox, SimImplicit} {
		for _, k := range []int{2, 8, 32} {
			opts := SpectralOptions{K: k, Seed: 3, Similarity: mode}
			res, err := Spectral{Opts: opts}.Reorder(a)
			if err != nil {
				t.Fatalf("%v k=%d: %v", mode, k, err)
			}
			est := estimateSpectralFootprint(a, opts)
			if est < res.FootprintBytes {
				t.Errorf("%v k=%d: estimate %d below realized %d", mode, k, est, res.FootprintBytes)
			}
		}
	}

	// Auto-k reports the same formula over its raw plus refined similarity;
	// the auto-k rung's budget estimate must bound that too. The second
	// input is dense enough that S plus the refined matrix outweigh the
	// n×n refined-matrix term, so an estimate charging the fixed-k pass's
	// matrix-free operator instead of the S auto-k materializes undercounts.
	dense := workloads.ScrambledBlock(workloads.Params{
		Rows: 128, Cols: 128, Density: 0.1, Seed: 5, Groups: 3,
	})
	for name, m := range map[string]*sparse.CSR{"block": a, "dense": dense} {
		p := &Pipeline{ForceReorder: true, Spectral: SpectralOptions{Seed: 3}, AutoK: true}
		res, err := p.ReorderContext(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(res.AutoK, AutoKSelected+":") {
			t.Fatalf("%s: auto-k outcome %q, want a selection to measure", name, res.AutoK)
		}
		if est := estimateAutoKFootprint(m, p.Spectral); est < res.FootprintBytes {
			t.Errorf("%s: auto-k estimate %d below realized %d", name, est, res.FootprintBytes)
		}
		if name != "dense" {
			continue
		}
		n := int64(m.Rows)
		opOnly := estimateSpectralFootprint(m, SpectralOptions{K: autoKMax + 1, Seed: 3}) + (n+1)*8 + n*n*(4+8)
		if opOnly >= res.FootprintBytes {
			t.Errorf("dense: an operator-only estimate %d already bounds realized %d; the input no longer tells the two apart",
				opOnly, res.FootprintBytes)
		}
	}
}
