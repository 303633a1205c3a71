package planserve

import (
	"fmt"
	"testing"
	"time"

	"bootes/internal/obs"
)

// TestShedLabelsStayBounded sheds more distinct tenants than the limiter
// keeps buckets for, once each: only the first tenantShedLabelCap are
// remembered and counted under their own names, every later one counts under
// "_other" without being stored, and a labelled tenant keeps its label.
func TestShedLabelsStayBounded(t *testing.T) {
	t0 := time.Unix(0, 0)
	l := newTenantLimiter(TenantConfig{Rate: 1, Burst: 1}, func() time.Time { return t0 }, obs.NewRegistry())
	const tenants = 10000
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t-%d", i)
		if ok, _ := l.allow(name); !ok {
			t.Fatalf("%s: first request shed", name)
		}
		if ok, _ := l.allow(name); ok {
			t.Fatalf("%s: second request admitted with an empty bucket", name)
		}
		l.recordShed(name)
	}
	l.recordShed("t-0")
	l.recordShed(fmt.Sprintf("t-%d", tenants-1))

	if n := len(l.buckets); n > maxTenantBuckets {
		t.Errorf("%d buckets, cap %d", n, maxTenantBuckets)
	}
	if n := len(l.shedLabels); n != tenantShedLabelCap {
		t.Errorf("%d tenants remembered for shed labels after %d distinct sheds, want %d", n, tenants, tenantShedLabelCap)
	}
	if got := l.shed.With("t-0").Value(); got != 2 {
		t.Errorf(`shed{tenant="t-0"} = %d, want 2`, got)
	}
	if got, want := l.shed.With("_other").Value(), int64(tenants-tenantShedLabelCap+1); got != want {
		t.Errorf(`shed{tenant="_other"} = %d, want %d`, got, want)
	}
	if got := l.shedTotal.Value(); got != tenants+2 {
		t.Errorf("shed total = %d, want %d", got, tenants+2)
	}
}
