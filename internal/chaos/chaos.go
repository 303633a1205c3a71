// Package chaos is the deterministic fault-injection harness for the Bootes
// serving stack. A Run executes N seeded episodes, each of which picks a
// scenario (direct planning, forced fixed-k planning, HTTP serving, cache
// byte corruption, mid-write crashes, durable-queue crash recovery, tenant
// quota storms), arms a randomized-but-reproducible subset of the
// faultinject registry, drives the real pipeline end to end, and then
// asserts the global invariants the rest of the codebase promises:
//
//   - no panic escapes any layer;
//   - no goroutine with a bootes/ frame outlives its episode, the shared
//     worker pool's extra-worker gauge returns to zero, and every admission
//     semaphore slot is released (internal/leakcheck);
//   - every served plan is structurally valid or explicitly marked degraded
//     with a reason — never silently wrong;
//   - the plan cache never holds a corrupt or degraded entry: damage is
//     quarantined, verification rejections never reach disk.
//
// Determinism: every choice an episode makes (scenario, matrix, fault points,
// fault options) derives from a per-episode rand.Rand seeded by
// (Config.Seed, episode index), and the full schedule is folded into
// Report.ScheduleDigest — two Runs with the same seed and episode count make
// identical choices, which the test suite asserts. Wall-clock outcomes
// (whether a deadline passed before or after a phase) may vary, but the
// invariants above must hold on every schedule, so a red Run is always a real
// bug, reproducible from its seed.
package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bootes"
	"bootes/internal/core"
	"bootes/internal/faultinject"
	"bootes/internal/leakcheck"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/planverify"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// Config parameterizes a chaos run.
type Config struct {
	// Seed determines the entire schedule. Two runs with equal Seed and
	// Episodes make identical choices.
	Seed int64
	// Episodes is the number of episodes to run (default 100).
	Episodes int
	// Dir is the scratch root for per-episode cache directories (required).
	Dir string
	// Only, when non-empty, restricts the run to the named scenario —
	// the dedicated soaks (fleet-partition, queue-crash) drill one scenario
	// far past its share of a mixed schedule.
	Only string
	// Logf sinks per-episode progress; nil is silent.
	Logf func(format string, args ...any)
}

// Report is the outcome of a Run. Violations empty means every invariant
// held in every episode.
type Report struct {
	// Episodes is the number of episodes executed.
	Episodes int
	// Scenarios / Faults tally how often each scenario ran and each fault
	// point was armed — a coverage check, not an invariant.
	Scenarios map[string]int
	Faults    map[string]int
	// Healthy / DegradedPlans / Refused tally plan outcomes across all
	// episodes: structurally sound plans, plans marked degraded, and
	// requests answered with a non-200 (shed, timeout, cancelled).
	Healthy, DegradedPlans, Refused int
	// Quarantined counts cache entries set aside as corrupt across all
	// episodes (the byte-flip scenario's expected path).
	Quarantined int64
	// Violations holds every invariant failure, labeled by episode. Empty
	// means the run passed.
	Violations []string
	// ScheduleDigest is a hash of every scheduling choice; equal seeds must
	// produce equal digests.
	ScheduleDigest string
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Run executes the chaos schedule. The returned error covers harness-level
// failures (unusable scratch dir); invariant violations are reported in the
// Report, not as an error.
func Run(cfg Config) (*Report, error) {
	if cfg.Episodes <= 0 {
		cfg.Episodes = 100
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	faultinject.Reset()
	defer faultinject.Reset()

	pool := scenarios
	if cfg.Only != "" {
		pool = nil
		for _, sc := range scenarios {
			if sc.name == cfg.Only {
				pool = append(pool, sc)
			}
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("chaos: unknown scenario %q", cfg.Only)
		}
	}

	rep := &Report{
		Scenarios: make(map[string]int),
		Faults:    make(map[string]int),
	}
	digest := sha256.New()
	for i := 0; i < cfg.Episodes; i++ {
		// splitmix-style stream separation: nearby episode indices get
		// unrelated streams.
		seed := cfg.Seed ^ (int64(i)+1)*0x9E3779B97F4A7C1 // splitmix-ish odd stride
		ep := &episode{
			index: i,
			rng:   rand.New(rand.NewSource(seed)),
			dir:   filepath.Join(cfg.Dir, fmt.Sprintf("ep%05d", i)),
			rep:   rep,
		}
		sc := pool[ep.rng.Intn(len(pool))]
		rep.Scenarios[sc.name]++
		snap := leakcheck.Take()

		schedule := ep.planFaults(sc)
		fmt.Fprintf(digest, "ep%d %s %s\n", i, sc.name, schedule)
		cfg.Logf("chaos: episode %d: %s [%s]", i, sc.name, schedule)

		runGuarded(ep, sc)
		faultinject.Reset()

		// Global invariants, after every episode regardless of scenario.
		if err := snap.Check(); err != nil {
			ep.violatef("goroutine leak: %v", err)
		}
		if err := leakcheck.SettleZero("parallel extras", parallel.Extras); err != nil {
			ep.violatef("worker pool not quiescent: %v", err)
		}
		ep.checkObs("default registry", obs.Default())
		ep.sweepCache()
		rep.Episodes++
	}
	rep.ScheduleDigest = hex.EncodeToString(digest.Sum(nil))
	sort.Strings(rep.Violations)
	return rep, nil
}

// episode carries one episode's deterministic randomness and scratch state.
type episode struct {
	index int
	rng   *rand.Rand
	dir   string
	rep   *Report

	// armed is the fault schedule planFaults chose; scenarios that manage
	// their own faults (cache-crash) leave it empty.
	armed []armedFault
	// cancel, when non-nil, is invoked by a SweepCancel firing — the
	// mid-plan cancellation corruption point.
	cancel context.CancelFunc
	// stallBudget is non-zero when WorkerStall is armed: a stalled worker
	// only exits when its context is done, so every pipeline run must carry
	// a deadline.
	stallBudget time.Duration
	// seenKeys dedupes matrix() draws within the episode. Some archetype
	// patterns are seed-independent (a banded matrix is fully determined by
	// its shape and density), so independent draws can collide on the cache
	// key — and a duplicate write is a pure cache hit, which breaks
	// scenario accounting that counts computes per drawn matrix.
	seenKeys map[string]bool
}

type armedFault struct {
	point string
	after int
	times int // -1 = always
}

func (e *episode) violatef(format string, args ...any) {
	e.rep.Violations = append(e.rep.Violations,
		fmt.Sprintf("episode %d: %s", e.index, fmt.Sprintf(format, args...)))
}

// pipelineFaults are the points planFaults may arm for scenarios that run the
// real pipeline. The atomicio crash points are excluded here — they abort a
// cache write mid-protocol and are exercised by the dedicated cache-crash
// scenario, which also verifies recovery.
var pipelineFaults = []string{
	faultinject.EigenNoConverge,
	faultinject.WorkerStall,
	faultinject.SweepCancel,
	faultinject.BreakerProbeFail,
	faultinject.PlanCorrupt,
	faultinject.LSHSparsifyFail,
}

// planFaults picks this episode's fault schedule (0–2 points with randomized
// trigger options) and returns its canonical string for the schedule digest.
// Arming happens later, inside the scenario, so OnFire hooks can close over
// per-episode state (the cancellation context).
func (e *episode) planFaults(sc scenario) string {
	e.armed = nil
	e.stallBudget = 0
	if !sc.pipeline {
		return "none"
	}
	n := e.rng.Intn(3) // 0, 1, or 2 simultaneous faults
	picked := e.rng.Perm(len(pipelineFaults))[:n]
	sort.Ints(picked) // canonical order for the digest
	parts := make([]string, 0, n)
	for _, pi := range picked {
		af := armedFault{point: pipelineFaults[pi], after: e.rng.Intn(3), times: 1 + e.rng.Intn(2)}
		if e.rng.Intn(4) == 0 {
			af.times = -1
		}
		if af.point == faultinject.WorkerStall {
			e.stallBudget = time.Duration(100+e.rng.Intn(200)) * time.Millisecond
		}
		e.armed = append(e.armed, af)
		e.rep.Faults[af.point]++
		parts = append(parts, fmt.Sprintf("%s/after=%d/times=%d", af.point, af.after, af.times))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// armAll arms the planned faults. SweepCancel gets an OnFire hook that
// cancels the episode's context — the mid-plan-cancellation corruption point.
func (e *episode) armAll() {
	for _, af := range e.armed {
		opts := []faultinject.Option{faultinject.After(af.after)}
		if af.times < 0 {
			opts = append(opts, faultinject.Always())
		} else {
			opts = append(opts, faultinject.Times(af.times))
		}
		if af.point == faultinject.SweepCancel && e.cancel != nil {
			cancel := e.cancel
			opts = append(opts, faultinject.OnFire(func() { cancel() }))
		}
		if err := faultinject.Arm(af.point, opts...); err != nil {
			e.violatef("arming %s: %v", af.point, err)
		}
	}
}

// matrix generates this episode's workload deterministically.
// matrix draws an episode-unique random matrix: draws whose cache key
// collides with an earlier draw are discarded and redrawn (deterministically
// — the redraw consumes the episode rng), so every scenario can assume its
// drawn working set has distinct plan identities.
func (e *episode) matrix() *sparse.CSR {
	if e.seenKeys == nil {
		e.seenKeys = make(map[string]bool)
	}
	for {
		m := e.drawMatrix()
		if key := plancache.KeyCSR(m); !e.seenKeys[key] {
			e.seenKeys[key] = true
			return m
		}
	}
}

func (e *episode) drawMatrix() *sparse.CSR {
	archetypes := []workloads.Archetype{
		workloads.ArchScrambledBlock,
		workloads.ArchPowerLaw,
		workloads.ArchBanded,
		workloads.ArchRandom,
	}
	a := archetypes[e.rng.Intn(len(archetypes))]
	rows := 24 + e.rng.Intn(41) // 24..64: big enough to cluster, fast enough to soak
	return workloads.Generate(a, workloads.Params{
		Rows: rows, Cols: rows,
		Density: 0.05 + 0.05*e.rng.Float64(),
		Seed:    e.rng.Int63(),
		Groups:  2 + e.rng.Intn(3),
	})
}

// randomPerm draws a random bijection on [0, n).
func (e *episode) randomPerm(n int) sparse.Permutation {
	p := make(sparse.Permutation, n)
	for i, v := range e.rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// budget is the deadline of each of this episode's pipeline runs: tight
// when a worker stall is armed (a stalled worker only exits when its context
// is done), generous otherwise.
func (e *episode) budget() time.Duration {
	if e.stallBudget > 0 {
		return e.stallBudget
	}
	return 5 * time.Second
}

// checkPlanShape asserts the valid-or-marked-degraded invariant on a plan's
// fields and tallies the outcome.
func (e *episode) checkPlanShape(where string, rows int, perm sparse.Permutation, k int, reordered, degraded bool, reason string) {
	vs := planverify.CheckPlan(rows, perm, k, reordered, degraded, reason)
	if len(vs) > 0 {
		e.violatef("%s: invalid plan served: %v", where, vs)
		return
	}
	if degraded {
		e.rep.DegradedPlans++
	} else {
		e.rep.Healthy++
	}
}

// checkObs asserts the observability invariants on a registry after an
// episode: the spans-open gauge settles back to zero (every stage span closed
// despite injected faults, contained panics, and cancellations), no counter
// or gauge has gone negative, and every histogram series is self-consistent —
// bucket counts sum to the series count, and a zero count implies a zero sum.
func (e *episode) checkObs(where string, reg *obs.Registry) {
	if err := leakcheck.SettleZero(where+" spans open", func() int64 {
		return reg.Gauge(obs.SpansOpenName, "").Value()
	}); err != nil {
		e.violatef("obs: %v", err)
	}
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			label := fam.Name
			if s.Labels != "" {
				label += "{" + s.Labels + "}"
			}
			switch fam.Type {
			case obs.TypeCounter, obs.TypeGauge:
				if s.Value < 0 {
					e.violatef("obs: %s: %s is negative: %d", where, label, s.Value)
				}
			case obs.TypeHistogram:
				var n uint64
				for _, c := range s.BucketCounts {
					n += c
				}
				if n != s.Count {
					e.violatef("obs: %s: %s bucket counts sum to %d, count is %d", where, label, n, s.Count)
				}
				if s.Count == 0 && s.Sum != 0 {
					e.violatef("obs: %s: %s has sum %g with zero observations", where, label, s.Sum)
				}
				if s.Sum < 0 {
					e.violatef("obs: %s: %s has negative sum %g", where, label, s.Sum)
				}
			}
		}
	}
}

// sweepCache reopens every cache directory the episode used and asserts no
// corrupt or degraded entry survived: every loadable entry passes the full
// field check, and anything undecodable was quarantined, not served.
func (e *episode) sweepCache() {
	if _, err := os.Stat(e.dir); os.IsNotExist(err) {
		return
	}
	c, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("cache sweep: reopen failed: %v", err)
		return
	}
	e.rep.Quarantined += c.Stats().Quarantined
	for _, key := range c.Keys() {
		entry, ok := c.Get(key)
		if !ok {
			continue
		}
		if vs := planverify.CheckEntryFields(len(entry.Perm), entry.Perm, entry.K, entry.Reordered, entry.Degraded, entry.DegradedReason); len(vs) > 0 {
			e.violatef("cache sweep: entry %.12s violates invariants: %v", key, vs)
		}
	}
}

// runGuarded executes one scenario under a panic guard: no episode may crash
// the harness, and an escaped panic is itself an invariant violation.
func runGuarded(e *episode, sc scenario) {
	defer func() {
		if r := recover(); r != nil {
			e.violatef("%s: panic escaped: %v", sc.name, r)
		}
	}()
	sc.run(e)
}

type scenario struct {
	name string
	// pipeline scenarios run the real planning pipeline and accept the
	// shared fault schedule; the others manage faults themselves.
	pipeline bool
	run      func(*episode)
}

var scenarios = []scenario{
	{"plan-direct", true, scenarioPlanDirect},
	{"plan-forcek", true, scenarioPlanForceK},
	{"plan-approx", false, scenarioPlanApprox},
	{"serve-http", true, scenarioServeHTTP},
	{"cache-bitflip", false, scenarioCacheBitFlip},
	{"cache-crash", false, scenarioCacheCrash},
	{"queue-crash", false, scenarioQueueCrash},
	{"tenant-storm", false, scenarioTenantStorm},
	{"fleet-partition", false, scenarioFleetPartition},
	{"fleet-heal", false, scenarioFleetHeal},
}

// scenarioPlanDirect drives bootes.PlanContext (verification always on)
// against the persistent cache, twice — the second call exercises the hit
// path under whatever faults remain armed.
func scenarioPlanDirect(e *episode) {
	m := e.matrix()
	cache, err := bootes.OpenPlanCache(e.dir)
	if err != nil {
		e.violatef("plan-direct: open cache: %v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.cancel = cancel
	e.armAll()
	opts := &bootes.Options{Seed: e.rng.Int63(), Cache: cache}
	for call := 0; call < 2; call++ {
		plan, ok := e.plan(ctx, "plan-direct", m, opts)
		if !ok {
			return
		}
		e.checkPlanShape("plan-direct", m.Rows, plan.Perm, plan.K, plan.Reordered, plan.Degraded, plan.DegradedReason)
	}
}

// plan runs one PlanContext call under its own deadline of e.budget(), so
// each call has the full time to plan. Only a cancellation of ctx may surface
// as an error, counted as a refusal; any other error — a passed deadline
// included, which must degrade the plan instead — is a violation. ok is
// false when the call errored.
func (e *episode) plan(ctx context.Context, where string, m *sparse.CSR, opts *bootes.Options) (plan *bootes.ReorderPlan, ok bool) {
	callCtx, cancel := context.WithTimeout(ctx, e.budget())
	defer cancel()
	plan, err := bootes.PlanContext(callCtx, m, opts)
	switch {
	case err == nil:
		return plan, true
	case errors.Is(ctx.Err(), context.Canceled):
		e.rep.Refused++
	default:
		e.violatef("%s: error without cancellation: %v", where, err)
	}
	return nil, false
}

// scenarioPlanForceK drives a forced plan request (ForceReorder with a
// ForceK drawn from the candidate set) under the shared 0–2-point fault
// schedule. The matrix always has planted cluster structure, so a spectral
// reorder that returns the identity permutation is impossible except through
// the degradation ladder's identity floor — which makes the sharpest
// invariant checkable: every response is a valid plan or a marked-degraded
// plan, and an identity plan must carry the ladder-exhausted reason. The
// second call exercises the cache-hit path; the post-episode cache sweep
// asserts no degraded entry was persisted.
func scenarioPlanForceK(e *episode) {
	archetypes := []workloads.Archetype{
		workloads.ArchScrambledBlock,
		workloads.ArchManySmallClusters,
		workloads.ArchNoisyBlock64,
	}
	rows := 24 + e.rng.Intn(41)
	m := workloads.Generate(archetypes[e.rng.Intn(len(archetypes))], workloads.Params{
		Rows: rows, Cols: rows,
		Density: 0.05 + 0.05*e.rng.Float64(),
		Seed:    e.rng.Int63(),
		Groups:  2 + e.rng.Intn(3),
	})
	cache, err := bootes.OpenPlanCache(e.dir)
	if err != nil {
		e.violatef("plan-forcek: open cache: %v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.cancel = cancel
	e.armAll()
	opts := &bootes.Options{
		Seed:         e.rng.Int63(),
		ForceK:       core.CandidateKs[e.rng.Intn(len(core.CandidateKs))],
		ForceReorder: true,
		Cache:        cache,
	}
	for call := 0; call < 2; call++ {
		plan, ok := e.plan(ctx, "plan-forcek", m, opts)
		if !ok {
			return
		}
		e.checkPlanShape("plan-forcek", m.Rows, plan.Perm, plan.K, plan.Reordered, plan.Degraded, plan.DegradedReason)
		if plan.Perm.IsIdentity() &&
			!(plan.Degraded && strings.Contains(plan.DegradedReason, "identity")) {
			e.violatef("plan-forcek: identity plan without ladder exhaustion (degraded=%v reason=%q)",
				plan.Degraded, plan.DegradedReason)
		}
	}
}

// scenarioPlanApprox permanently arms the sparsifier fault point and pins
// the approximate similarity tier, which no public option selects, through
// core.Pipeline and the verifier PlanContext runs on a ForceK plan: the
// pipeline must descend the degradation ladder to its retry-loose rung on
// the implicit operator — a real reordering naming the sparsifier failure,
// never the identity floor. It manages its own fault (the shared schedule
// could arm points that push degradation past that rung, which would turn
// this scenario's sharpest assertion into a coin flip).
func scenarioPlanApprox(e *episode) {
	m := e.matrix()
	faultinject.Arm(faultinject.LSHSparsifyFail, faultinject.Always())
	e.rep.Faults[faultinject.LSHSparsifyFail]++
	p := &core.Pipeline{
		Spectral:     core.SpectralOptions{Seed: e.rng.Int63(), Similarity: core.SimApprox},
		ForceReorder: true,
		ForceK:       4,
	}
	res, err := p.ReorderContext(context.Background(), m)
	if err != nil {
		e.violatef("plan-approx: error instead of degradation: %v", err)
		return
	}
	res, _ = planverify.VerifyResult(planverify.SitePlan, m, res, nil)
	if !res.Degraded {
		e.violatef("plan-approx: failing sparsifier did not mark the plan Degraded")
	}
	if !strings.Contains(res.DegradedReason, "sparsify") {
		e.violatef("plan-approx: reason %q does not name the sparsifier fault", res.DegradedReason)
	}
	if strings.Contains(res.DegradedReason, "fell back to identity") {
		e.violatef("plan-approx: fell to the identity floor: %q", res.DegradedReason)
	}
	if res.SimilarityMode != "implicit" {
		e.violatef("plan-approx: degraded to tier %q, want implicit", res.SimilarityMode)
	}
	e.checkPlanShape("plan-approx", m.Rows, res.Perm, int(res.Extra["k"]), res.Reordered, res.Degraded, res.DegradedReason)
}

// scenarioServeHTTP stands up the full serving stack (admission, retries,
// breaker, cache) on an httptest server and fires a burst of requests, some
// concurrent, asserting every response is a valid plan, a marked-degraded
// plan, or an honest refusal — and that shutdown drains every slot.
func scenarioServeHTTP(e *episode) {
	cache, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("serve-http: open cache: %v", err)
		return
	}
	reg := obs.NewRegistry()
	srv, err := planserve.New(planserve.Config{
		Plan:            planserve.PipelinePlan(bootes.Options{Seed: e.rng.Int63()}),
		Cache:           cache,
		MaxInFlight:     1 + e.rng.Intn(3),
		MaxQueue:        1 + e.rng.Intn(3),
		DefaultDeadline: e.budget(),
		MaxRetries:      1,
		Breaker:         planserve.BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond},
		Metrics:         reg,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		e.violatef("serve-http: %v", err)
		return
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.cancel = cancel
	e.armAll()

	matrices := make([]*sparse.CSR, 1+e.rng.Intn(2))
	for i := range matrices {
		matrices[i] = e.matrix()
	}
	requests := 2 + e.rng.Intn(3)
	type outcome struct {
		code int
		body []byte
		rows int
	}
	results := make(chan outcome, requests)
	for i := 0; i < requests; i++ {
		m := matrices[e.rng.Intn(len(matrices))]
		go func(m *sparse.CSR) {
			var buf strings.Builder
			_ = sparse.WriteMatrixMarket(&buf, m)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/plan?perm=1", strings.NewReader(buf.String()))
			req.Header.Set("X-Deadline", e.budget().String())
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- outcome{code: resp.StatusCode, body: body, rows: m.Rows}
		}(m)
	}
	for i := 0; i < requests; i++ {
		out := <-results
		switch out.code {
		case http.StatusOK:
			var pr planserve.PlanResponse
			if err := json.Unmarshal(out.body, &pr); err != nil {
				e.violatef("serve-http: unparseable 200 body: %v", err)
				continue
			}
			e.checkPlanShape("serve-http", out.rows, sparse.Permutation(pr.Perm), pr.K,
				pr.Reordered, pr.Degraded, pr.DegradedReason)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, 499, -1:
			e.rep.Refused++ // honest refusal under injected load/faults
		default:
			e.violatef("serve-http: unexpected status %d: %.200s", out.code, out.body)
		}
	}

	faultinject.Reset() // a parked WorkerStall must not outlive the episode
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		e.violatef("serve-http: drain failed: %v", err)
	}
	if err := leakcheck.SettleZero("admission slots", func() int64 {
		return int64(srv.SlotsInUse())
	}); err != nil {
		e.violatef("serve-http: %v", err)
	}
	// The drained server's registry must also be quiescent and consistent.
	e.checkObs("serve-http registry", reg)
}

// scenarioCacheBitFlip plants healthy entries, flips one random bit in one
// random entry file (simulated disk rot), and asserts the damage is
// quarantined on reopen — detected by CRC/structure, never served — while
// undamaged entries survive.
func scenarioCacheBitFlip(e *episode) {
	c, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("cache-bitflip: %v", err)
		return
	}
	entries := 1 + e.rng.Intn(3)
	for i := 0; i < entries; i++ {
		m := e.matrix()
		p32 := e.randomPerm(m.Rows)
		reordered := !p32.IsIdentity()
		k := 0
		if reordered {
			k = []int{2, 4, 8, 16, 32}[e.rng.Intn(5)]
		}
		err := c.Put(&plancache.Entry{Key: plancache.KeyCSR(m), Perm: p32, Reordered: reordered, K: k})
		if err != nil {
			e.violatef("cache-bitflip: healthy Put rejected: %v", err)
			return
		}
	}
	names, err := os.ReadDir(e.dir)
	if err != nil || len(names) == 0 {
		e.violatef("cache-bitflip: no entry files on disk (%v)", err)
		return
	}
	victim := filepath.Join(e.dir, names[e.rng.Intn(len(names))].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		e.violatef("cache-bitflip: %v", err)
		return
	}
	data[e.rng.Intn(len(data))] ^= 1 << e.rng.Intn(8)
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		e.violatef("cache-bitflip: %v", err)
		return
	}
	// A "restart" must detect the rot and keep serving the survivors.
	c2, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("cache-bitflip: corrupted entry made Open fatal: %v", err)
		return
	}
	q := c2.Stats().Quarantined
	e.rep.Quarantined += q
	if q != 1 {
		e.violatef("cache-bitflip: quarantined = %d, want 1", q)
	}
	if got := c2.Len(); got != entries-1 {
		e.violatef("cache-bitflip: %d entries survive, want %d", got, entries-1)
	}
}

// scenarioCacheCrash kills a cache write at a random atomicio protocol step
// and asserts the all-or-nothing property: after "restart", the entry is
// fully present or fully absent, no temp files linger, and the write can
// simply be retried.
func scenarioCacheCrash(e *episode) {
	points := []string{
		faultinject.CacheWriteTemp,
		faultinject.CacheWriteFsync,
		faultinject.CacheWriteRename,
	}
	point := points[e.rng.Intn(len(points))]
	e.rep.Faults[point]++
	c, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("cache-crash: %v", err)
		return
	}
	m := e.matrix()
	p32 := e.randomPerm(m.Rows)
	entry := &plancache.Entry{Key: plancache.KeyCSR(m), Perm: p32, Reordered: !p32.IsIdentity()}
	if entry.Reordered {
		entry.K = 8
	}
	if err := faultinject.Arm(point); err != nil {
		e.violatef("cache-crash: %v", err)
		return
	}
	if err := c.Put(entry); err == nil {
		e.violatef("cache-crash: Put survived an injected crash at %s", point)
	}
	faultinject.Reset()

	c2, err := plancache.Open(e.dir)
	if err != nil {
		e.violatef("cache-crash: unloadable after crash at %s: %v", point, err)
		return
	}
	if q := c2.Stats().Quarantined; q != 0 {
		e.violatef("cache-crash: crash at %s left %d corrupt entries", point, q)
	}
	if err := c2.Put(entry); err != nil {
		e.violatef("cache-crash: retry after crash failed: %v", err)
		return
	}
	if _, ok := c2.Get(entry.Key); !ok {
		e.violatef("cache-crash: retried entry not served")
	}
}
