// Package planverify is the always-on invariant checker that stands between
// the planning pipeline and everything downstream of it. Bootes's value
// proposition is "reorder only when it helps": a plan that silently ships an
// invalid or traffic-worsening permutation is strictly worse than serving
// identity. Every ReorderPlan is therefore machine-checked before it is
// returned to a caller (bootes.PlanContext), persisted (plancache.Put), or
// served over HTTP (internal/planserve). A violation never fails the request:
// the plan falls back to the identity permutation with the violation recorded
// in DegradedReason, and bootes_verify_violations_total{site,code} on
// /metrics ticks so operators can see corruption the moment it appears.
//
// The checks, in cost order:
//
//   - structural: the permutation is a bijection of exactly the matrix's row
//     count; K is 0 or one of core.CandidateKs; Degraded implies a non-empty
//     DegradedReason (and vice versa);
//     Reordered agrees with whether the permutation is the identity. O(rows).
//   - traffic (optional, planning site only): the row-granular LRU model of
//     internal/trafficmodel predicts the reordered matrix moves no more B
//     bytes than the original order. A gate-approved plan that the model says
//     regresses is replaced by identity — the never-regress principle,
//     enforced rather than assumed. O(nnz).
//
// The faultinject.PlanCorrupt point makes the verifier check a deliberately
// corrupted copy of the permutation, letting tests and the chaos harness
// prove that every wiring site actually catches a bad plan.
package planverify

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bootes/internal/core"
	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
)

// Violation codes. Code strings are stable identifiers for counters and
// tests; Detail carries the specifics.
const (
	// CodePermInvalid: the permutation is not a bijection on [0, rows).
	CodePermInvalid = "perm-invalid"
	// CodeBadK: K is neither 0 nor a candidate cluster count.
	CodeBadK = "k-not-allowed"
	// CodeReasonMismatch: Degraded and DegradedReason disagree (a degraded
	// plan without a reason, or a reason on a healthy plan).
	CodeReasonMismatch = "degraded-reason-mismatch"
	// CodeReorderedMismatch: Reordered disagrees with the permutation (a
	// "reordered" identity, or a non-identity plan claiming otherwise).
	CodeReorderedMismatch = "reordered-mismatch"
	// CodeTrafficRegression: the traffic model predicts the reordering moves
	// more bytes than the original order.
	CodeTrafficRegression = "traffic-regression"
	// CodeDegradedCached: a degraded plan reached a cache write.
	CodeDegradedCached = "degraded-cached"
	// CodeReencodeMismatch: a cache entry did not re-encode bit-identically
	// (recorded by plancache.Put's codec round-trip check).
	CodeReencodeMismatch = "reencode-mismatch"
)

// Wiring sites, used as counter labels.
const (
	SitePlan     = "plan"           // bootes.PlanContext, pipeline output
	SitePlanHit  = "plan-cache-hit" // bootes.PlanContext, cached entry
	SiteCachePut = "plancache-put"  // plancache.Put, before the durable write
	SiteServe    = "planserve"      // planserve, before a 200 response
	SiteServeHit = "planserve-hit"  // planserve, cache or peer entry
)

// Violation is one failed invariant.
type Violation struct {
	Code   string
	Detail string
}

func (v Violation) String() string {
	if v.Detail == "" {
		return v.Code
	}
	return v.Code + " (" + v.Detail + ")"
}

// Config parameterizes the checks. The zero value (or nil) selects the
// defaults; the planning site additionally enables the traffic check.
type Config struct {
	// Traffic enables the never-regress traffic check on reordered plans.
	Traffic bool
	// CacheBytes / ElemBytes parameterize the row-LRU traffic model.
	// Zero selects 1 MiB and 12 bytes (the accelerator configs' element
	// cost), the scale at which the model's ranking tracks the simulator.
	CacheBytes int64
	ElemBytes  int64
}

func (c *Config) withDefaults() Config {
	var out Config
	if c != nil {
		out = *c
	}
	if out.CacheBytes <= 0 {
		out.CacheBytes = 1 << 20
	}
	if out.ElemBytes <= 0 {
		out.ElemBytes = 12
	}
	return out
}

// Record counts violations observed at site in the obs.Default registry by
// site and code (bootes_verify_violations_total). Wiring sites call it
// automatically; it is exported for sites (like plancache's re-encode check)
// that detect violations with their own machinery.
func Record(site string, vs ...Violation) {
	for _, v := range vs {
		obs.VerifyViolation(site, v.Code, 1)
	}
}

// CheckPlan runs the structural invariants on a plan's fields and returns
// every violation found (nil when the plan is sound). It is pure: no
// counters, no fault injection.
func CheckPlan(rows int, perm sparse.Permutation, k int, reordered, degraded bool, reason string) []Violation {
	var vs []Violation
	permOK := false
	if err := perm.Validate(rows); err != nil {
		vs = append(vs, Violation{CodePermInvalid, err.Error()})
	} else {
		permOK = true
	}
	if k != 0 && !slices.Contains(core.CandidateKs, k) {
		// A plan records the *requested* candidate count, which may exceed a
		// tiny matrix's row count, so the candidate set is legal at any size.
		vs = append(vs, Violation{CodeBadK,
			fmt.Sprintf("k=%d is not a candidate count %v", k, core.CandidateKs)})
	}
	if degraded && reason == "" {
		vs = append(vs, Violation{CodeReasonMismatch, "degraded plan without a reason"})
	}
	if !degraded && reason != "" {
		vs = append(vs, Violation{CodeReasonMismatch, "healthy plan carries a degradation reason"})
	}
	if permOK {
		if id := perm.IsIdentity(); reordered == id {
			if reordered {
				vs = append(vs, Violation{CodeReorderedMismatch, "plan claims reordered but the permutation is the identity"})
			} else {
				vs = append(vs, Violation{CodeReorderedMismatch, "plan claims original order but the permutation is not the identity"})
			}
		}
	}
	return vs
}

// CheckTraffic runs the never-regress check: the row-granular LRU traffic
// model must not predict more B traffic for the permuted order than for the
// original. B follows the paper's operand rule (B = A when square, Aᵀ
// otherwise). Returns nil when the plan does not regress.
func CheckTraffic(m *sparse.CSR, perm sparse.Permutation, cfg *Config) *Violation {
	c := cfg.withDefaults()
	b := trafficmodel.OperandB(m)
	base, err := trafficmodel.EstimateB(m, b, c.CacheBytes, c.ElemBytes)
	if err != nil {
		return &Violation{CodeTrafficRegression, "traffic model failed on original order: " + err.Error()}
	}
	with, err := trafficmodel.EstimateBWithPerm(m, b, perm, c.CacheBytes, c.ElemBytes)
	if err != nil {
		return &Violation{CodeTrafficRegression, "traffic model failed on permuted order: " + err.Error()}
	}
	if with.BTraffic > base.BTraffic {
		return &Violation{
			CodeTrafficRegression,
			fmt.Sprintf("permuted B traffic %d B exceeds original %d B", with.BTraffic, base.BTraffic),
		}
	}
	return nil
}

// VerifyResult is the wiring-site entry point for planning results: it checks
// res against m and, on any violation, records the violations under site and
// returns a safe identity replacement whose DegradedReason names them. A
// sound plan is returned unchanged. When the faultinject.PlanCorrupt point is
// armed, a corrupted copy of the permutation is checked instead of the real
// one (the original is never mutated), so tests can prove the site catches
// corruption.
func VerifyResult(site string, m *sparse.CSR, res *reorder.Result, cfg *Config) (*reorder.Result, []Violation) {
	c := cfg.withDefaults()
	perm := res.Perm
	if faultinject.Fire(faultinject.PlanCorrupt) {
		perm = CorruptedCopy(perm)
	}
	k := int(res.Extra["k"])
	vs := CheckPlan(m.Rows, perm, k, res.Reordered, res.Degraded, res.DegradedReason)
	if len(vs) == 0 && c.Traffic && res.Reordered {
		if v := CheckTraffic(m, perm, &c); v != nil {
			vs = append(vs, *v)
		}
	}
	if len(vs) == 0 {
		return res, nil
	}
	Record(site, vs...)
	return fallbackIdentity(m.Rows, res, vs), vs
}

// CachePut verifies a plan about to be persisted: the structural plan checks
// plus the cache-only invariant that degraded plans are never cached. On
// violation it records under SiteCachePut and returns an error naming every
// violation; the caller must not write the entry. The PlanCorrupt injection
// point applies here exactly as in VerifyResult.
func CachePut(perm sparse.Permutation, k int, reordered, degraded bool, reason string) error {
	p := perm
	if faultinject.Fire(faultinject.PlanCorrupt) {
		p = CorruptedCopy(p)
	}
	vs := CheckPlan(len(perm), p, k, reordered, degraded, reason)
	if degraded {
		vs = append(vs, Violation{CodeDegradedCached, "degraded plans must never be cached"})
	}
	if len(vs) == 0 {
		return nil
	}
	Record(SiteCachePut, vs...)
	return fmt.Errorf("planverify: entry rejected: %s", joinViolations(vs))
}

// CheckEntryFields verifies a plan loaded from a cache (a hit about to be
// served) for a matrix of rows rows: structural checks, the permutation's
// length against rows, and degraded-never-cached. A site with no matrix at
// hand passes len(perm). It is pure; callers Record under their own site and
// treat any violation as a cache miss.
func CheckEntryFields(rows int, perm sparse.Permutation, k int, reordered, degraded bool, reason string) []Violation {
	vs := CheckPlan(len(perm), perm, k, reordered, degraded, reason)
	if degraded {
		vs = append(vs, Violation{CodeDegradedCached, "degraded entry found in cache"})
	}
	if len(perm) != rows {
		vs = append(vs, Violation{CodePermInvalid,
			fmt.Sprintf("entry permutation has %d rows, matrix has %d", len(perm), rows)})
	}
	return vs
}

// CorruptedCopy returns a copy of perm damaged so that no structural check
// can pass: a duplicated value for length ≥ 2, an out-of-range value for
// length 1, a spurious element for length 0. The input is never modified.
func CorruptedCopy(perm sparse.Permutation) sparse.Permutation {
	c := append(sparse.Permutation(nil), perm...)
	switch len(c) {
	case 0:
		c = append(c, 0) // wrong length for a 0-row matrix
	case 1:
		c[0] = -1
	default:
		c[0] = c[len(c)-1] // duplicate ⇒ not a bijection
	}
	return c
}

// fallbackIdentity builds the safe replacement plan: identity permutation,
// marked degraded with a reason that names the violations (appended to any
// pre-existing degradation trail).
func fallbackIdentity(rows int, res *reorder.Result, vs []Violation) *reorder.Result {
	reason := verifyReason(vs)
	if res.Degraded && res.DegradedReason != "" {
		reason = res.DegradedReason + "; " + reason
	}
	out := &reorder.Result{
		Perm:           sparse.IdentityPerm(rows),
		PreprocessTime: res.PreprocessTime,
		FootprintBytes: res.FootprintBytes,
		Reordered:      false,
		Degraded:       true,
		DegradedReason: reason,
		Extra:          map[string]float64{"k": 0},
	}
	for key, v := range res.Extra {
		if key != "k" {
			out.Extra[key] = v
		}
	}
	return out
}

// verifyReason renders violations as a DegradedReason fragment. Pure traffic
// regressions get their own phrasing so the serving layer can classify them
// as deterministic (never worth a retry), while corruption-type failures say
// "plan verification failed", which the serving layer treats as transient —
// a recomputation may well come back clean.
func verifyReason(vs []Violation) string {
	trafficOnly := true
	for _, v := range vs {
		if v.Code != CodeTrafficRegression {
			trafficOnly = false
			break
		}
	}
	if trafficOnly {
		return "traffic regression predicted: " + joinViolations(vs) + "; fell back to identity"
	}
	return "plan verification failed: " + joinViolations(vs) + "; fell back to identity"
}

func joinViolations(vs []Violation) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
