package planserve

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

// The breaker state machine: Closed (normal service) → Open after
// FailureThreshold consecutive failures (identity fast-path for Cooldown)
// → HalfOpen (one probe request runs the real pipeline) → Closed on probe
// success, back to Open on probe failure.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for /statsz and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes the degradation circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive hard-degraded plans
	// (still transiently degraded after serve-level retries) that trips the
	// breaker. 0 disables the breaker entirely.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Defaults to 15s.
	Cooldown time.Duration
}

// breaker implements the trip / cooldown / half-open-probe state machine.
// It protects the planning pipeline from repeated pointless work: when the
// pipeline is persistently falling down the degradation ladder (e.g. the
// eigensolver cannot converge on anything), clients get an immediate,
// clearly-marked identity plan instead of burning a pipeline slot to compute
// the same identity plan slowly.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu            sync.Mutex
	state         BreakerState
	consecutive   int       // consecutive failures while closed
	openedAt      time.Time // when the breaker last tripped
	probeInFlight bool      // a half-open probe is running
	trips         int64
}

// newBreaker builds a breaker; nil now uses the real clock, and a zero
// cfg.FailureThreshold disables it (Allow always permits).
func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg, now: now}
}

// Allow decides how a request may proceed: run the real pipeline (possibly
// as the half-open probe) or take the identity fast-path.
func (b *breaker) Allow() (runPipeline, probe bool) {
	if b.cfg.FailureThreshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probeInFlight = true
		return true, true
	default: // BreakerHalfOpen
		if b.probeInFlight {
			return false, false // one probe at a time; others stay on the fast-path
		}
		b.probeInFlight = true
		return true, true
	}
}

// CancelProbe releases a claimed half-open probe slot without an outcome
// (the probing request was coalesced away or died before the pipeline ran),
// so the next request can probe instead of the slot leaking.
func (b *breaker) CancelProbe() {
	if b.cfg.FailureThreshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probeInFlight = false
	}
	b.mu.Unlock()
}

// Record feeds one pipeline outcome back. probe marks the half-open probe's
// own result; success means the plan did not hard-degrade.
func (b *breaker) Record(success, probe bool) {
	if b.cfg.FailureThreshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probeInFlight = false
		if success {
			b.state = BreakerClosed
			b.consecutive = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
		return
	}
	if b.state != BreakerClosed {
		return // stale result from before the trip; the probe decides recovery
	}
	if success {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.consecutive >= b.cfg.FailureThreshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trips++
		b.consecutive = 0
	}
}

// Snapshot returns the state and trip count for /statsz.
func (b *breaker) Snapshot() (BreakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
