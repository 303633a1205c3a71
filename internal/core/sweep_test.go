package core

import (
	"testing"

	"bootes/internal/workloads"
)

// TestSpectralSweepMatchesFixedK: the sweep runs the fixed-k pass with one
// shared eigensolve, so a single-k sweep, and the largest-k entry of a
// multi-k sweep, reproduce Spectral at that k bit for bit.
func TestSpectralSweepMatchesFixedK(t *testing.T) {
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 1024, Cols: 1024, Density: 0.01, Seed: 9, Groups: 8,
	})
	opts := SpectralOptions{Seed: 4}
	fixed := func(k int) []int32 {
		t.Helper()
		o := opts
		o.K = k
		res, err := Spectral{Opts: o}.Reorder(a)
		if err != nil {
			t.Fatalf("Spectral k=%d: %v", k, err)
		}
		return res.Perm
	}
	entries, err := SpectralSweep(a, []int{2, 4, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	for i, e := range entries {
		if e.K != []int{2, 4, 8}[i] {
			t.Errorf("entry %d has K=%d", i, e.K)
		}
		if err := e.Perm.Validate(a.Rows); err != nil {
			t.Errorf("k=%d: %v", e.K, err)
		}
		if e.PreprocessTime <= 0 {
			t.Errorf("k=%d: missing time", e.K)
		}
	}
	// Permutations for different k must generally differ.
	same := true
	for i := range entries[0].Perm {
		if entries[0].Perm[i] != entries[2].Perm[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("k=2 and k=8 produced identical permutations")
	}

	if !sameInt32(entries[2].Perm, fixed(8)) {
		t.Error("largest-k sweep entry (k=8) differs from Spectral at k=8")
	}
	for _, k := range []int{2, 4, 8} {
		single, err := SpectralSweep(a, []int{k}, opts)
		if err != nil {
			t.Fatalf("single-k sweep k=%d: %v", k, err)
		}
		if !sameInt32(single[0].Perm, fixed(k)) {
			t.Errorf("single-k sweep at k=%d differs from Spectral at k=%d", k, k)
		}
	}
}

func TestSpectralSweepErrors(t *testing.T) {
	a := workloads.Random(workloads.Params{Rows: 64, Cols: 64, Density: 0.1, Seed: 1})
	if _, err := SpectralSweep(a, nil, SpectralOptions{}); err == nil {
		t.Error("empty k list accepted")
	}
	if _, err := SpectralSweep(a, []int{1}, SpectralOptions{}); err == nil {
		t.Error("k=1 accepted")
	}
	// k > n clamps rather than failing.
	entries, err := SpectralSweep(a, []int{2, 128}, SpectralOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := entries[1].Perm.Validate(a.Rows); err != nil {
		t.Error(err)
	}
}
