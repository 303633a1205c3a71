package experiments

import (
	"fmt"
	"slices"
	"time"

	"bootes/internal/core"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// kpCaches are the LRU capacities the KP experiment scores orders at: a
// small on-chip buffer, e2ebench's traffic cache, and a large one.
var kpCaches = []int64{16 << 10, 64 << 10, 256 << 10}

// kpGroup is a named set of slots, each generated at several seeds.
type kpGroup struct {
	name  string
	slots []workloads.Slot
	seeds int
}

// kpGroups is the KP corpus: both cold cycles at three seeds each, then
// eight archetypes at 4 096 and 8 000 rows and about 8 nonzeros per row,
// larger than any e2ebench matrix.
func kpGroups() []kpGroup {
	groups := []kpGroup{
		{name: "cold-sparse", slots: workloads.ColdSparse, seeds: 3},
		{name: "cold-dense", slots: workloads.ColdDense, seeds: 3},
	}
	for _, arch := range []workloads.Archetype{
		workloads.ArchScrambledBlock, workloads.ArchFEM, workloads.ArchPowerLaw,
		workloads.ArchKNN, workloads.ArchFEM3D, workloads.ArchCircuit,
		workloads.ArchManySmallClusters, workloads.ArchNoisyBlock64,
	} {
		g := kpGroup{name: arch.String(), seeds: 1}
		for _, rows := range []int{4096, 8000} {
			g.slots = append(g.slots, workloads.Slot{Arch: arch, Rows: rows, Density: 8 / float64(rows)})
		}
		groups = append(groups, g)
	}
	return groups
}

// kpMatrix is one generated KP corpus matrix.
type kpMatrix struct {
	group string
	a     *sparse.CSR
}

// kpCorpus generates a group's matrices in slot-major, seed-minor order
// (workloads.Corpus).
func kpCorpus(g kpGroup, seed int64) []kpMatrix {
	var out []kpMatrix
	for _, a := range workloads.Corpus(g.slots, seed, g.seeds) {
		out = append(out, kpMatrix{g.name, a})
	}
	return out
}

// KPRecord is one KP matrix: the gate's verdict and, when it approves, the
// modeled B traffic and plan time of every candidate k.
type KPRecord struct {
	Group string
	Rows  int
	// Approved is the untrained gate's verdict. Declined matrices are
	// served in their original order whatever the k policy, so they are
	// listed but never scored.
	Approved bool
	// Base[c] is identity-order B traffic at kpCaches[c]; Bytes[i][c] is B
	// traffic under core.FixedK at CandidateKs[i].
	Base  []int64
	Bytes [][]int64
	// PlanTime[i] is the wall clock of the CandidateKs[i] plan.
	PlanTime []time.Duration
}

// sizeRuleK is the cluster count the untrained gate served before it served
// a fixed k: one k per row-count band, 32 from 1 024 rows up. It is kept
// here only as a comparison column.
func sizeRuleK(rows int) int {
	switch {
	case rows < 256:
		return 4
	case rows < 512:
		return 8
	case rows < 1024:
		return 16
	}
	return 32
}

// KPReport is the KP experiment outcome.
type KPReport struct {
	Records []KPRecord
}

// kIndex returns k's position in core.CandidateKs.
func kIndex(k int) int { return slices.Index(core.CandidateKs, k) }

// OracleK is the candidate k with the least B traffic at kpCaches[cache]:
// the per-matrix oracle.
func (r KPRecord) OracleK(cache int) int {
	best := 0
	for i, b := range r.Bytes {
		if b[cache] < r.Bytes[best][cache] {
			best = i
		}
	}
	return core.CandidateKs[best]
}

// Ratio sums, over the approved records of group ("" for every group), the
// B traffic at kpCaches[cache] of the k that pick serves each record, and
// divides by the original order's sum.
func (r *KPReport) Ratio(group string, cache int, pick func(rec KPRecord, cache int) int) float64 {
	var with, base int64
	for _, rec := range r.Records {
		if rec.Approved && (group == "" || rec.Group == group) {
			base += rec.Base[cache]
			with += rec.Bytes[kIndex(pick(rec, cache))][cache]
		}
	}
	if base == 0 {
		return 1
	}
	return float64(with) / float64(base)
}

// MeanPlanMS is the mean plan wall clock at CandidateKs[i] over group's
// approved records ("" for every group), in milliseconds.
func (r *KPReport) MeanPlanMS(group string, i int) float64 {
	var sum time.Duration
	n := 0
	for _, rec := range r.Records {
		if rec.Approved && (group == "" || rec.Group == group) {
			sum += rec.PlanTime[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1000 / float64(n)
}

// Ratio's pick functions: a fixed k, the former size rule, the oracle.
func fixedPick(k int) func(KPRecord, int) int { return func(KPRecord, int) int { return k } }
func sizeRulePick(r KPRecord, _ int) int      { return sizeRuleK(r.Rows) }
func oraclePick(r KPRecord, cache int) int    { return r.OracleK(cache) }

// KPolicy runs the KP experiment: which cluster count should the untrained
// gate serve? Every gate-approved corpus matrix is planned through
// core.FixedK at each candidate k and scored by the traffic model at
// kpCaches (12 B per element). The report sums each policy's traffic per
// group — each fixed k, the former size rule (sizeRuleK) and the per-matrix
// oracle — names every cell where core.UntrainedK loses to another policy,
// and lists the mean plan time per k. Records are deterministic for a given
// Seed and any Jobs value; plan times are wall clock and grow with Jobs.
func KPolicy(c Config) (*KPReport, error) {
	c = c.WithDefaults()
	groups := kpGroups()
	var mats []kpMatrix
	for _, g := range groups {
		mats = append(mats, kpCorpus(g, c.Seed)...)
	}
	recs := make([]KPRecord, len(mats))
	errs := make([]error, len(mats))
	parallel.ForWorkers(c.Jobs, len(mats), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			recs[i], errs[i] = c.kpRun(mats[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep := &KPReport{Records: recs}

	// Report rows: every group with an approved matrix, then "" for all.
	var rows []string
	for _, g := range groups {
		if rep.approved(g.name) > 0 {
			rows = append(rows, g.name)
		}
	}
	rows = append(rows, "")
	label := func(g string) string {
		if g == "" {
			return "all"
		}
		return g
	}
	header := func(tail string) {
		c.printf("  %-20s %4s", "group", "n")
		for _, k := range core.CandidateKs {
			c.printf(" %7s", fmt.Sprintf("k=%d", k))
		}
		c.printf("%s\n", tail)
	}

	c.printf("\nUntrained-gate k (KP): summed B-traffic ratio vs original order over\n")
	c.printf("gate-approved matrices (trafficmodel, 12 B/elem); served k = %d\n", core.UntrainedK)
	var losses []string
	for ci, cache := range kpCaches {
		c.printf("\n  cache %d KiB\n", cache>>10)
		header(fmt.Sprintf(" %7s %7s", "rule", "oracle"))
		for _, g := range rows {
			c.printf("  %-20s %4d", label(g), rep.approved(g))
			for _, k := range core.CandidateKs {
				c.printf(" %7.4f", rep.Ratio(g, ci, fixedPick(k)))
			}
			c.printf(" %7.4f %7.4f\n", rep.Ratio(g, ci, sizeRulePick), rep.Ratio(g, ci, oraclePick))
			if loss := rep.lossAt(g, ci); loss != "" {
				losses = append(losses, fmt.Sprintf("%s at %d KiB: %s", label(g), cache>>10, loss))
			}
		}
	}
	c.printf("\n  mean plan ms (wall clock, -jobs %d)\n", max(c.Jobs, 1))
	header("")
	for _, g := range rows {
		c.printf("  %-20s %4d", label(g), rep.approved(g))
		for i := range core.CandidateKs {
			c.printf(" %7.1f", rep.MeanPlanMS(g, i))
		}
		c.printf("\n")
	}
	c.printf("\n  cells where k=%d loses to another fixed k or the rule (by > 0.1 point):\n", core.UntrainedK)
	if len(losses) == 0 {
		c.printf("    none\n")
	}
	for _, l := range losses {
		c.printf("    %s\n", l)
	}
	return rep, nil
}

// approved counts group's gate-approved records ("" for every group).
func (r *KPReport) approved(group string) int {
	n := 0
	for _, rec := range r.Records {
		if rec.Approved && (group == "" || rec.Group == group) {
			n++
		}
	}
	return n
}

// lossAt names the policy that beats core.UntrainedK by the widest margin
// in group at kpCaches[cache], or "" when none beats it by more than 0.1
// point of ratio.
func (r *KPReport) lossAt(group string, cache int) string {
	served := r.Ratio(group, cache, fixedPick(core.UntrainedK))
	bestName, best := "", served-0.001
	for _, k := range core.CandidateKs {
		if v := r.Ratio(group, cache, fixedPick(k)); v < best {
			bestName, best = fmt.Sprintf("k=%d", k), v
		}
	}
	if v := r.Ratio(group, cache, sizeRulePick); v < best {
		bestName, best = "rule", v
	}
	if bestName == "" {
		return ""
	}
	return fmt.Sprintf("k=%d %.4f vs %s %.4f (%.1f points)",
		core.UntrainedK, served, bestName, best, 100*(served-best))
}

// kpRun gates one matrix and, when the gate approves, plans and scores it
// at every candidate k.
func (c Config) kpRun(m kpMatrix) (KPRecord, error) {
	rec := KPRecord{Group: m.group, Rows: m.a.Rows}
	label, err := (&core.Pipeline{}).Decide(m.a)
	if err != nil {
		return rec, fmt.Errorf("KP %s: gate: %w", m.group, err)
	}
	if rec.Approved = label != core.ClassNoReorder; !rec.Approved {
		return rec, nil
	}
	aOp, bOp := operands(m.a)
	if rec.Base, err = kpTraffic(aOp, bOp, nil); err != nil {
		return rec, fmt.Errorf("KP %s: %w", m.group, err)
	}
	for _, k := range core.CandidateKs {
		res, err := core.FixedK{K: k, Opts: c.spectral(c.Seed)}.Reorder(m.a)
		if err != nil {
			return rec, fmt.Errorf("KP %s k=%d: %w", m.group, k, err)
		}
		b, err := kpTraffic(aOp, bOp, res.Perm)
		if err != nil {
			return rec, fmt.Errorf("KP %s k=%d: %w", m.group, k, err)
		}
		rec.Bytes = append(rec.Bytes, b)
		rec.PlanTime = append(rec.PlanTime, res.PreprocessTime)
	}
	return rec, nil
}

// kpTraffic models B traffic under perm (nil = original order) at every
// kpCaches capacity.
func kpTraffic(a, b *sparse.CSR, perm sparse.Permutation) ([]int64, error) {
	out := make([]int64, len(kpCaches))
	for i, cache := range kpCaches {
		var est trafficmodel.Estimate
		var err error
		if perm == nil {
			est, err = trafficmodel.EstimateB(a, b, cache, 12)
		} else {
			est, err = trafficmodel.EstimateBWithPerm(a, b, perm, cache, 12)
		}
		if err != nil {
			return nil, err
		}
		out[i] = est.BTraffic
	}
	return out, nil
}
