package experiments

import (
	"context"
	"fmt"

	"bootes/internal/core"
	"bootes/internal/parallel"
	"bootes/internal/workloads"
)

// SelectorRecord captures one corpus matrix's cluster-count-selector
// comparison: the best fixed-k sweep result (the strongest selector the
// candidate set {2,4,8,16,32} can produce — every k is tried and scored by
// the traffic model) against eigengap auto-k over the refined similarity.
// Ratios are predicted B traffic under the permutation divided by B traffic
// in original order (internal/trafficmodel), lower is better.
type SelectorRecord struct {
	// Archetype names the workload generator; New marks the archetypes added
	// for the auto-k evaluation (cluster structure the fixed set handles
	// poorly).
	Archetype string
	New       bool
	Rows      int
	NNZ       int64
	// CacheBytes is the per-matrix LRU capacity the ratios were scored at:
	// ~1/20 of B's modeled bytes — roughly one planted cluster's working
	// set, so exact-k orderings are rewarded and capacity misses exist (a
	// cache that holds the whole operand makes every ordering tie at 1).
	CacheBytes int64
	// BestFixedK and FixedRatio are the sweep winner and its traffic ratio.
	BestFixedK int
	FixedRatio float64
	// AutoK and AutoRatio are the eigengap selection and its ratio. On a
	// fallback outcome the selector defers to the fixed-k sweep (AutoK = 0,
	// AutoRatio = FixedRatio): the production recipe falls back to the sweep
	// when the spectrum is ambiguous, so the comparison scores that policy.
	AutoK     int
	AutoRatio float64
	// Outcome is the auto-k outcome string ("selected: k=…" / "fallback-…").
	Outcome string
}

// DeltaPct is the auto-k improvement over the best fixed k in percent of the
// fixed ratio; positive means auto-k predicts less traffic.
func (r SelectorRecord) DeltaPct() float64 {
	if r.FixedRatio == 0 {
		return 0
	}
	return (r.FixedRatio - r.AutoRatio) / r.FixedRatio * 100
}

// SelectorReport is the SC experiment outcome.
type SelectorReport struct {
	Records []SelectorRecord
}

// NewArchetypeWins counts new archetypes where auto-k is strictly better.
func (r *SelectorReport) NewArchetypeWins() (wins, total int) {
	for _, rec := range r.Records {
		if !rec.New {
			continue
		}
		total++
		if rec.AutoRatio < rec.FixedRatio {
			wins++
		}
	}
	return wins, total
}

// WorstExistingRegressionPct returns the largest auto-k regression (negative
// delta, as a positive percentage) across the pre-existing archetypes; 0 when
// auto-k never loses to the sweep on them.
func (r *SelectorReport) WorstExistingRegressionPct() float64 {
	worst := 0.0
	for _, rec := range r.Records {
		if rec.New {
			continue
		}
		if d := rec.DeltaPct(); d < 0 && -d > worst {
			worst = -d
		}
	}
	return worst
}

// selectorCorpus is the archetype sweep for the SC experiment: every
// pre-existing corpus archetype plus the three added for auto-k, one matrix
// each at nominal n = 4096 (5120 for the k=64 archetype so scaled runs keep
// ≥ 8 rows per planted cluster), ~24 nonzeros per row.
func selectorCorpus() []workloads.Spec {
	type entry struct {
		arch   workloads.Archetype
		rows   int
		groups int
	}
	existing := []entry{
		{workloads.ArchScrambledBlock, 4096, 16},
		{workloads.ArchFEM, 4096, 0},
		{workloads.ArchFEM3D, 4096, 0},
		{workloads.ArchPowerLaw, 4096, 0},
		{workloads.ArchCircuit, 4096, 0},
		{workloads.ArchLP, 4096, 16},
		{workloads.ArchKNN, 4096, 16},
		{workloads.ArchBanded, 4096, 0},
		{workloads.ArchRandom, 4096, 0},
	}
	added := []entry{
		{workloads.ArchManySmallClusters, 4096, 0},
		{workloads.ArchNoisyBlock64, 5120, 0},
		{workloads.ArchHubPowerLaw, 4096, 16},
	}
	var specs []workloads.Spec
	for i, e := range append(existing, added...) {
		specs = append(specs, workloads.Spec{
			ID:        fmt.Sprintf("SC%02d", i+1),
			Name:      e.arch.String(),
			Rows:      e.rows,
			Cols:      e.rows,
			Density:   24 / float64(e.rows),
			Archetype: e.arch,
			Groups:    e.groups,
			Seed:      7000 + int64(i),
		})
	}
	return specs
}

// selectorIsNew reports whether arch is one of the auto-k archetypes.
func selectorIsNew(arch string) bool {
	switch arch {
	case workloads.ArchManySmallClusters.String(),
		workloads.ArchNoisyBlock64.String(),
		workloads.ArchHubPowerLaw.String():
		return true
	}
	return false
}

// SelectorComparison runs the SC experiment: fixed-k sweep vs eigengap auto-k
// over the archetype corpus, scored by the row-granular LRU traffic model at a
// per-matrix cache of ~1/20 the operand's modeled bytes (see
// SelectorRecord.CacheBytes). Deterministic for a given (Scale, Seed) and
// any Jobs value — each workload is independently seeded and records land in
// spec order.
func SelectorComparison(c Config) (*SelectorReport, error) {
	c = c.WithDefaults()
	specs := selectorCorpus()
	recs := make([]SelectorRecord, len(specs))
	errs := make([]error, len(specs))
	parallel.ForWorkers(c.Jobs, len(specs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recs[i], errs[i] = c.selectorRun(specs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep := &SelectorReport{Records: recs}

	c.printf("\nSelector comparison (SC): best fixed-k sweep vs eigengap auto-k\n")
	c.printf("predicted B-traffic ratio vs original order at a per-matrix cache of\n")
	c.printf("~B-bytes/20; Δ%% > 0 = auto-k better\n\n")
	c.printf("   %-22s %6s %8s %8s | %6s %8s | %8s %8s  %s\n",
		"archetype", "rows", "nnz", "cacheB", "best-k", "fixed", "auto-k", "Δ%", "outcome")
	for _, r := range recs {
		mark := " "
		if r.New {
			mark = "*"
		}
		autoK := "sweep"
		if r.AutoK > 0 {
			autoK = fmt.Sprintf("k=%d", r.AutoK)
		}
		c.printf(" %s %-22s %6d %8d %8d | %6d %8.4f | %8.4f %+8.2f  %s [%s]\n",
			mark, r.Archetype, r.Rows, r.NNZ, r.CacheBytes, r.BestFixedK, r.FixedRatio,
			r.AutoRatio, r.DeltaPct(), autoK, r.Outcome)
	}
	wins, total := rep.NewArchetypeWins()
	c.printf("\n * = new auto-k archetype; auto-k strictly better on %d/%d new, "+
		"worst existing-archetype regression %.2f%%\n", wins, total, rep.WorstExistingRegressionPct())
	return rep, nil
}

// selectorRun scores one matrix under both selectors.
func (c Config) selectorRun(spec workloads.Spec) (SelectorRecord, error) {
	a := spec.Generate(c.Scale)
	cache := maxI64(2<<10, a.NNZ()*12/20)
	rec := SelectorRecord{
		Archetype:  spec.Name,
		New:        selectorIsNew(spec.Name),
		Rows:       a.Rows,
		NNZ:        a.NNZ(),
		CacheBytes: cache,
	}

	// Fixed-k arm: sweep every candidate, keep the traffic-model winner.
	entries, err := core.SpectralSweep(a, core.CandidateKs, c.spectral(spec.Seed))
	if err != nil {
		return rec, fmt.Errorf("SC %s: sweep: %w", spec.Name, err)
	}
	rec.FixedRatio = -1
	for _, e := range entries {
		ratio, err := trafficRatio(a, e.Perm, cache)
		if err != nil {
			return rec, fmt.Errorf("SC %s: traffic k=%d: %w", spec.Name, e.K, err)
		}
		if rec.FixedRatio < 0 || ratio < rec.FixedRatio {
			rec.FixedRatio, rec.BestFixedK = ratio, e.K
		}
	}

	// Auto-k arm: the eigengap selector with the production refinement
	// recipe. ForceReorder bypasses the gate — the selector, not the gate,
	// is under comparison here.
	p := &core.Pipeline{
		ForceReorder: true,
		Spectral:     c.spectral(spec.Seed),
		AutoK:        true,
	}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		return rec, fmt.Errorf("SC %s: auto-k: %w", spec.Name, err)
	}
	rec.Outcome = res.AutoK
	if core.AutoKOutcomeLabel(res.AutoK) == core.AutoKSelected {
		rec.AutoK = int(res.Extra["k"])
		rec.AutoRatio, err = trafficRatio(a, res.Perm, cache)
		if err != nil {
			return rec, fmt.Errorf("SC %s: traffic auto-k: %w", spec.Name, err)
		}
	} else {
		// Fallback: the production policy defers to the fixed-k sweep.
		rec.AutoRatio = rec.FixedRatio
	}
	return rec, nil
}
