package planserve

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"bootes/internal/obs"
)

// TenantConfig is the per-tenant traffic-shaping policy: one token-bucket
// quota every tenant gets a bucket of. A zero Rate disables quota
// enforcement entirely (every tenant is admitted); the queue's weighted-fair
// dequeue and backlog bounds still apply to async jobs.
type TenantConfig struct {
	// Rate is the sustained request rate in tokens per second.
	Rate float64
	// Burst is the bucket capacity (default ceil(Rate)).
	Burst int
}

// tenantShedLabelCap bounds the label cardinality of
// bootes_tenant_shed_total: the first tenantShedLabelCap distinct tenants get
// their own label, the rest aggregate under "_other" — a flood of unique
// tenant names must not grow the metrics payload without bound.
const tenantShedLabelCap = 32

// maxTenantBuckets bounds the limiter's memory: beyond it, a full (idle)
// bucket is evicted to make room — a full bucket re-created later admits the
// same burst, so eviction never penalizes a tenant.
const maxTenantBuckets = 4096

// tenantBucket is one tenant's token bucket.
type tenantBucket struct {
	tokens float64
	last   time.Time
}

// tenantLimiter enforces TenantConfig over all tenants. All methods are
// concurrency-safe.
type tenantLimiter struct {
	cfg TenantConfig
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*tenantBucket

	shed       *obs.CounterVec
	shedLabels map[string]struct{} // tenants with their own shed label, at most tenantShedLabelCap
	shedTotal  *obs.Counter
}

// newTenantLimiter builds a limiter; returns nil when quotas are disabled.
func newTenantLimiter(cfg TenantConfig, now func() time.Time, reg *obs.Registry) *tenantLimiter {
	if cfg.Rate <= 0 {
		return nil
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(math.Ceil(cfg.Rate))
	}
	if now == nil {
		now = time.Now
	}
	return &tenantLimiter{
		cfg:        cfg,
		now:        now,
		buckets:    make(map[string]*tenantBucket),
		shed:       reg.CounterVec("bootes_tenant_shed_total", "Requests shed by per-tenant quota, by tenant (high-cardinality tenants aggregate under \"_other\").", "tenant"),
		shedLabels: make(map[string]struct{}),
		shedTotal:  reg.Counter("bootes_tenant_shed_all_total", "Requests shed by per-tenant quota, all tenants."),
	}
}

// allow takes one token from tenant's bucket. When the bucket is empty it
// reports the wait until the next token accrues — the value the handler
// returns as Retry-After (whole seconds, rounded up, at least 1).
func (l *tenantLimiter) allow(tenant string) (ok bool, retryAfter time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[tenant]
	if !exists {
		b = &tenantBucket{tokens: float64(l.cfg.Burst), last: now}
		if len(l.buckets) >= maxTenantBuckets {
			l.evictFullBucketLocked()
		}
		l.buckets[tenant] = b
	}
	b.tokens = math.Min(float64(l.cfg.Burst), b.tokens+now.Sub(b.last).Seconds()*l.cfg.Rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.cfg.Rate * float64(time.Second))
}

// recordShed counts a quota rejection for tenant on both the per-tenant
// vector (cardinality-capped) and the scalar total. Only the tenants that get
// their own label are remembered; every later one counts under "_other"
// without being stored, so a flood of unique names costs no memory here.
func (l *tenantLimiter) recordShed(tenant string) {
	l.shedTotal.Inc()
	label := tenant
	l.mu.Lock()
	if _, ok := l.shedLabels[tenant]; !ok {
		if len(l.shedLabels) < tenantShedLabelCap {
			l.shedLabels[tenant] = struct{}{}
		} else {
			label = "_other"
		}
	}
	l.mu.Unlock()
	l.shed.With(label).Inc()
}

// evictFullBucketLocked drops one bucket that is at full capacity (idle long
// enough to have refilled); if none qualifies, an arbitrary one goes — the
// map must stay bounded even under adversarial tenant-name churn.
func (l *tenantLimiter) evictFullBucketLocked() {
	var fallback string
	for name, b := range l.buckets {
		if b.tokens >= float64(l.cfg.Burst) {
			delete(l.buckets, name)
			return
		}
		fallback = name
	}
	if fallback != "" {
		delete(l.buckets, fallback)
	}
}

// retryAfterHeader renders a Retry-After value: whole seconds, rounded up,
// never below 1.
func retryAfterHeader(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// tenantOf extracts the request's tenant identity: the X-Tenant header,
// falling back to ?tenant=, falling back to "default". Identity lives in the
// envelope, not the body, so quota decisions happen before any body bytes
// are read or buffered.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}
