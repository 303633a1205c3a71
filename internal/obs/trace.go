package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The pipeline's stage names, in execution order. Stage spans use these as
// the `stage` label of bootes_plan_stage_seconds; the CLI's stage-time table
// prints them in this order.
const (
	StageFeatures   = "features"
	StageSimilarity = "similarity"
	StageEigensolve = "eigensolve"
	StageKMeans     = "kmeans"
	StageSweep      = "sweep"
	StagePermute    = "permute"
)

// StageOrder lists the known stages in canonical pipeline order.
var StageOrder = []string{
	StageFeatures, StageSimilarity, StageEigensolve, StageKMeans, StageSweep, StagePermute,
}

// Registry-facing metric names for spans. Kept as constants so tests and the
// chaos invariant reference the same spelling as the instrumentation.
const (
	// StageSecondsName is the per-stage latency histogram (label: stage).
	StageSecondsName = "bootes_plan_stage_seconds"
	// SpansOpenName is the gauge of currently open stage spans; it must read
	// zero whenever no plan is in flight — the chaos harness asserts it
	// settles to zero after every episode.
	SpansOpenName = "bootes_plan_spans_open"
)

// StageSecondsBuckets are the fixed latency buckets, spanning microsecond
// feature passes to the minute-scale eigensolves of the largest matrices.
var StageSecondsBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}

// StageTiming is one completed stage span.
type StageTiming struct {
	Stage   string
	Seconds float64
}

// Trace collects the stage spans of one planning call, in completion order.
// Attach one to a context with WithTrace to get a per-plan breakdown (the
// CLI's `analyze -stats` table); stage latencies are recorded into the
// registry's histograms whether or not a trace is attached.
type Trace struct {
	reg *Registry

	mu     sync.Mutex
	stages []StageTiming
}

// NewTrace returns a trace whose spans use (and record into) this registry.
func (r *Registry) NewTrace() *Trace { return &Trace{reg: r} }

func (t *Trace) add(stage string, seconds float64) {
	t.mu.Lock()
	t.stages = append(t.stages, StageTiming{Stage: stage, Seconds: seconds})
	t.mu.Unlock()
}

// Report returns the completed spans, in completion order.
func (t *Trace) Report() []StageTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageTiming(nil), t.stages...)
}

// Table renders the spans as an aligned stage-time table: known stages in
// pipeline order first (repeated observations of one stage are summed — a
// degraded plan may run eigensolve several times), unknown stages after,
// alphabetically, then a total line.
func (t *Trace) Table() string {
	totals := make(map[string]float64)
	counts := make(map[string]int)
	for _, s := range t.Report() {
		totals[s.Stage] += s.Seconds
		counts[s.Stage]++
	}
	order := append([]string(nil), StageOrder...)
	known := make(map[string]bool, len(StageOrder))
	for _, s := range StageOrder {
		known[s] = true
	}
	var extra []string
	for s := range totals {
		if !known[s] {
			extra = append(extra, s)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)

	var b strings.Builder
	b.WriteString("stage times:\n")
	total := 0.0
	for _, s := range order {
		sec, ok := totals[s]
		if !ok {
			continue
		}
		total += sec
		note := ""
		if counts[s] > 1 {
			note = fmt.Sprintf("  (%d runs)", counts[s])
		}
		fmt.Fprintf(&b, "  %-11s %10.6fs%s\n", s, sec, note)
	}
	fmt.Fprintf(&b, "  %-11s %10.6fs\n", "total", total)
	return b.String()
}

type ctxKey int

const (
	traceKey ctxKey = iota
	registryKey
)

// WithTrace attaches t to the context; stage spans started under it report
// into the trace as well as its registry.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithRegistry directs stage spans and pipeline counters recorded under this
// context into reg instead of Default (planserve scopes pipeline metrics to
// its per-server registry this way).
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey, reg)
}

// RegistryFrom resolves the registry for a context: the attached trace's
// registry, else the context's registry, else Default. Never nil.
func RegistryFrom(ctx context.Context) *Registry {
	if t := TraceFrom(ctx); t != nil && t.reg != nil {
		return t.reg
	}
	if r, _ := ctx.Value(registryKey).(*Registry); r != nil {
		return r
	}
	return Default()
}

// StartStage opens a stage span and returns its close function. The close is
// idempotent and must be called exactly when the stage ends (use defer so
// contained panics still close the span); the duration lands in the
// registry's bootes_plan_stage_seconds histogram and, when the context
// carries a trace, in the trace. The spans-open gauge tracks unclosed spans
// so quiescence is observable.
func StartStage(ctx context.Context, stage string) func() {
	t := TraceFrom(ctx)
	reg := RegistryFrom(ctx)
	open := reg.Gauge(SpansOpenName, "Stage spans currently open; zero when no plan is in flight.")
	open.Add(1)
	start := reg.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := reg.Now().Sub(start)
			if d < 0 {
				d = 0
			}
			sec := d.Seconds()
			reg.HistogramVec(StageSecondsName, "Wall-clock time per planning pipeline stage.",
				StageSecondsBuckets, "stage").With(stage).Observe(sec)
			open.Add(-1)
			if t != nil {
				t.add(stage, sec)
			}
		})
	}
}

// Pipeline outcome and degradation-ladder counters. These are package-level
// helpers rather than methods so the core pipeline can record without
// holding a registry: the context picks the destination.
const (
	plansName        = "bootes_plans_total"
	rungAttemptsName = "bootes_plan_rung_attempts_total"
	rungFailuresName = "bootes_plan_rung_failures_total"
)

// SimilarityModeName is the counter family recording which similarity tier
// (exact, bitset, approx, implicit) each spectral pass actually ran with
// (label: mode). An auto-k attempt counts once, by the kernel that formed
// the S it refines, even where its ordering embedding runs on the implicit
// operator. Exported so serving processes can read it back out of their
// registries for /metrics assertions.
const SimilarityModeName = "bootes_similarity_mode_total"

// SimilarityModeUsed counts one spectral pass by the similarity tier it ran.
func SimilarityModeUsed(ctx context.Context, mode string) {
	RegistryFrom(ctx).CounterVec(SimilarityModeName,
		"Spectral passes by similarity construction tier.", "mode").With(mode).Inc()
}

// AutoKName is the counter family recording eigengap auto-k attempts by
// outcome (selected, fallback-ambiguous, fallback-implicit, degraded).
// Exported so serving processes can assert on it from their registries.
const AutoKName = "bootes_autok_total"

// AutoKOutcome counts one auto-k attempt by its outcome label.
func AutoKOutcome(ctx context.Context, outcome string) {
	RegistryFrom(ctx).CounterVec(AutoKName,
		"Eigengap auto-k attempts by outcome.", "outcome").With(outcome).Inc()
}

// Plan outcome labels.
const (
	OutcomeHealthy  = "healthy"  // reordered or gate-declined, no degradation
	OutcomeDegraded = "degraded" // served, but down the ladder
	OutcomeError    = "error"    // cancellation or a fault that surfaced
)

// PlanOutcome counts one finished planning call by outcome.
func PlanOutcome(ctx context.Context, outcome string) {
	RegistryFrom(ctx).CounterVec(plansName,
		"Planning pipeline calls by outcome.", "outcome").With(outcome).Inc()
}

// RungAttempt counts one degradation-ladder rung attempt.
func RungAttempt(ctx context.Context, rung string) {
	RegistryFrom(ctx).CounterVec(rungAttemptsName,
		"Degradation-ladder rung attempts.", "rung").With(rung).Inc()
}

// RungFailure counts one rung that failed or was skipped, descending the
// ladder. The identity floor never fails, so failures < attempts on a
// healthy process.
func RungFailure(ctx context.Context, rung string) {
	RegistryFrom(ctx).CounterVec(rungFailuresName,
		"Degradation-ladder rungs that failed or were skipped.", "rung").With(rung).Inc()
}

// VerifyViolationsName is the plan-verification violation counter mirrored
// from internal/planverify (labels: site, code). It lives on Default — the
// verifier's counters are process-wide by design.
const VerifyViolationsName = "bootes_verify_violations_total"

// VerifyViolation mirrors n verification violations at site with the given
// code into the Default registry.
func VerifyViolation(site, code string, n int64) {
	Default().CounterVec(VerifyViolationsName,
		"Plan verification violations by wiring site and violation code.",
		"site", "code").With(site, code).Add(n)
}

// Elapse is a test helper: a deterministic fake clock that advances by step
// on every reading, starting at base. Install with Registry.SetNow.
func Elapse(base time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	now := base
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(step)
		return now
	}
}
