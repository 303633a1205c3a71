package planverify

import (
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// siteViolations sums bootes_verify_violations_total over every code
// recorded at site.
func siteViolations(site string) int64 {
	var n int64
	for _, f := range obs.Default().Snapshot() {
		if f.Name != obs.VerifyViolationsName {
			continue
		}
		for _, s := range f.Series {
			if strings.HasPrefix(s.Labels, `site="`+site+`"`) {
				n += s.Value
			}
		}
	}
	return n
}

// blockMatrix builds a 16×16 matrix of two dense 8-row column groups: rows
// 0–7 reference columns 0–7, rows 8–15 reference columns 8–15. With a cache
// that holds one group but not both, the grouped (identity) order is optimal
// and any interleaving of the groups regresses traffic.
func blockMatrix(t *testing.T) *sparse.CSR {
	t.Helper()
	rowPtr := make([]int64, 17)
	var col []int32
	for i := 0; i < 16; i++ {
		base := int32(0)
		if i >= 8 {
			base = 8
		}
		for j := int32(0); j < 8; j++ {
			col = append(col, base+j)
		}
		rowPtr[i+1] = int64(len(col))
	}
	m, err := sparse.NewCSR(16, 16, rowPtr, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// interleavePerm alternates the two groups: 0,8,1,9,…
func interleavePerm() sparse.Permutation {
	p := make(sparse.Permutation, 16)
	for i := 0; i < 8; i++ {
		p[2*i] = int32(i)
		p[2*i+1] = int32(i + 8)
	}
	return p
}

func TestCheckPlanSound(t *testing.T) {
	perm := sparse.Permutation{1, 0, 2, 3}
	if vs := CheckPlan(4, perm, 2, true, false, ""); len(vs) != 0 {
		t.Fatalf("sound plan flagged: %v", vs)
	}
	// A candidate count above the row count is what a tiny matrix's plan
	// records (the requested k), so it stays legal.
	if vs := CheckPlan(4, perm, 32, true, false, ""); len(vs) != 0 {
		t.Fatalf("candidate k above rows flagged: %v", vs)
	}
	// A degraded identity plan with a reason is also sound.
	if vs := CheckPlan(4, sparse.IdentityPerm(4), 0, false, true, "budget"); len(vs) != 0 {
		t.Fatalf("sound degraded plan flagged: %v", vs)
	}
}

func hasCode(vs []Violation, code string) bool {
	for _, v := range vs {
		if v.Code == code {
			return true
		}
	}
	return false
}

func TestCheckPlanViolations(t *testing.T) {
	cases := []struct {
		name string
		vs   []Violation
		code string
	}{
		{"short perm", CheckPlan(4, sparse.Permutation{0, 1, 2}, 0, false, false, ""), CodePermInvalid},
		{"duplicate value", CheckPlan(4, sparse.Permutation{0, 1, 1, 3}, 0, false, false, ""), CodePermInvalid},
		{"out of range", CheckPlan(4, sparse.Permutation{0, 1, 2, 9}, 0, false, false, ""), CodePermInvalid},
		{"k below 2", CheckPlan(4, sparse.Permutation{1, 0, 2, 3}, 1, true, false, ""), CodeBadK},
		{"k above rows", CheckPlan(4, sparse.Permutation{1, 0, 2, 3}, 5, true, false, ""), CodeBadK},
		{"k=3 not a candidate", CheckPlan(4, sparse.Permutation{1, 0, 2, 3}, 3, true, false, ""), CodeBadK},
		{"degraded without reason", CheckPlan(4, sparse.IdentityPerm(4), 0, false, true, ""), CodeReasonMismatch},
		{"reason without degraded", CheckPlan(4, sparse.IdentityPerm(4), 0, false, false, "oops"), CodeReasonMismatch},
		{"reordered identity", CheckPlan(4, sparse.IdentityPerm(4), 2, true, false, ""), CodeReorderedMismatch},
		{"unflagged reorder", CheckPlan(4, sparse.Permutation{1, 0, 2, 3}, 0, false, false, ""), CodeReorderedMismatch},
	}
	for _, c := range cases {
		if !hasCode(c.vs, c.code) {
			t.Errorf("%s: violations %v missing %s", c.name, c.vs, c.code)
		}
	}
}

func TestCheckTraffic(t *testing.T) {
	m := blockMatrix(t)
	cfg := &Config{CacheBytes: 1024, ElemBytes: 12}
	// Identity "reordering" never regresses against itself.
	if v := CheckTraffic(m, sparse.IdentityPerm(16), cfg); v != nil {
		t.Fatalf("identity flagged as regression: %v", v)
	}
	// Interleaving the groups thrashes the one-group cache.
	if v := CheckTraffic(m, interleavePerm(), cfg); v == nil {
		t.Fatal("group-interleaving permutation not flagged as a traffic regression")
	} else if v.Code != CodeTrafficRegression {
		t.Fatalf("code = %s, want %s", v.Code, CodeTrafficRegression)
	}
}

func TestVerifyResultPassesSoundPlan(t *testing.T) {
	before := siteViolations(SitePlan)
	m := blockMatrix(t)
	res := &reorder.Result{
		Perm:      sparse.Permutation{1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		Reordered: true,
		Extra:     map[string]float64{"k": 2},
	}
	got, vs := VerifyResult(SitePlan, m, res, &Config{Traffic: true, CacheBytes: 1024})
	if len(vs) != 0 || got != res {
		t.Fatalf("sound plan rewritten: %v (violations %v)", got, vs)
	}
	if d := siteViolations(SitePlan) - before; d != 0 {
		t.Fatalf("counter ticked on a sound plan: %d", d)
	}
}

func TestVerifyResultTrafficFallback(t *testing.T) {
	before := siteViolations(SitePlan)
	m := blockMatrix(t)
	res := &reorder.Result{
		Perm:      interleavePerm(),
		Reordered: true,
		Extra:     map[string]float64{"k": 2, "matvecs": 7},
	}
	got, vs := VerifyResult(SitePlan, m, res, &Config{Traffic: true, CacheBytes: 1024})
	if len(vs) == 0 {
		t.Fatal("regressing plan not flagged")
	}
	if got.Reordered || !got.Perm.IsIdentity() {
		t.Fatalf("fallback is not identity: %+v", got)
	}
	if !got.Degraded || !strings.Contains(got.DegradedReason, "traffic regression predicted") {
		t.Fatalf("fallback reason = %q", got.DegradedReason)
	}
	if got.Extra["matvecs"] != 7 {
		t.Fatal("diagnostics lost in fallback")
	}
	if d := siteViolations(SitePlan) - before; d != int64(len(vs)) {
		t.Fatalf("plan-site counter moved by %d, want %d", d, len(vs))
	}
}

func TestVerifyResultCatchesInjectedCorruption(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := blockMatrix(t)
	orig := sparse.IdentityPerm(16)
	orig[0], orig[1] = 1, 0
	res := &reorder.Result{
		Perm:      append(sparse.Permutation(nil), orig...),
		Reordered: true,
		Extra:     map[string]float64{"k": 4},
	}
	if err := faultinject.Arm(faultinject.PlanCorrupt); err != nil {
		t.Fatal(err)
	}
	got, vs := VerifyResult(SitePlan, m, res, nil)
	if !hasCode(vs, CodePermInvalid) {
		t.Fatalf("injected corruption not caught: %v", vs)
	}
	if !got.Degraded || !strings.Contains(got.DegradedReason, "plan verification failed") {
		t.Fatalf("fallback reason = %q", got.DegradedReason)
	}
	// The caller's plan is never mutated by the injected corruption.
	for i := range orig {
		if res.Perm[i] != orig[i] {
			t.Fatal("injection mutated the original permutation")
		}
	}
	// Disarmed, the same plan verifies clean.
	faultinject.Reset()
	if _, vs := VerifyResult(SitePlan, m, res, nil); len(vs) != 0 {
		t.Fatalf("plan flagged after disarm: %v", vs)
	}
}

func TestCachePutRejectsDegradedAndCorrupt(t *testing.T) {
	before := siteViolations(SiteCachePut)
	perm := sparse.IdentityPerm(8)
	if err := CachePut(perm, 0, false, true, "budget expired"); err == nil {
		t.Fatal("degraded entry accepted for caching")
	}
	if err := CachePut(sparse.Permutation{0, 0, 2, 3}, 0, false, false, ""); err == nil {
		t.Fatal("non-bijective entry accepted for caching")
	}
	if err := CachePut(perm, 0, false, false, ""); err != nil {
		t.Fatalf("sound entry rejected: %v", err)
	}
	if siteViolations(SiteCachePut) == before {
		t.Fatal("cache-put violations not counted")
	}
}

func TestCheckEntryFields(t *testing.T) {
	if vs := CheckEntryFields(4, sparse.IdentityPerm(4), 0, false, true, "x"); !hasCode(vs, CodeDegradedCached) {
		t.Fatalf("degraded cache entry not flagged: %v", vs)
	}
	if vs := CheckEntryFields(4, sparse.Permutation{2, 0, 1, 3}, 8, true, false, ""); len(vs) != 0 {
		t.Fatalf("sound entry flagged: %v", vs)
	}
	// A sound permutation for another row count is not this matrix's plan.
	if vs := CheckEntryFields(5, sparse.Permutation{2, 0, 1, 3}, 8, true, false, ""); !hasCode(vs, CodePermInvalid) {
		t.Fatalf("entry for 4 rows accepted for a 5-row matrix: %v", vs)
	}
}

func TestCorruptedCopyNeverValidates(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 64} {
		orig := sparse.IdentityPerm(n)
		c := CorruptedCopy(orig)
		if err := c.Validate(n); err == nil {
			t.Fatalf("n=%d: corrupted copy still validates", n)
		}
		if err := orig.Validate(n); err != nil {
			t.Fatalf("n=%d: corruption touched the original: %v", n, err)
		}
	}
}
