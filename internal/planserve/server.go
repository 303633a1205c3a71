// Package planserve is the resilient plan-serving layer behind cmd/bootesd:
// it fronts the fault-tolerant planning pipeline with a crash-safe plan
// cache, admission control with load shedding, request coalescing, retry
// with backoff for transient degradations, a degradation circuit breaker,
// and graceful drain.
//
// Request lifecycle for POST /v1/plan:
//
//	read body → key and row count (from the body memo when these exact
//	  bytes were parsed before, handed over when a fleet router resolved
//	  them, parsed otherwise) → lookup (verified cache hit or peer fill)
//	  → parse, if not yet parsed
//	  → breaker check (open ⇒ immediate identity plan, marked, never cached)
//	  → singleflight join (followers wait, consuming no slot)
//	  → leader: admission (bounded in-flight + bounded queue; full ⇒ 429)
//	  → pipeline with per-request deadline, retrying transient degradations
//	    with exponential backoff + jitter
//	  → persist (cache write of healthy plans, then replication) → respond
//
// Async jobs take the same lookup, pipeline and persist through RunJob.
package planserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bootes"
	"bootes/internal/antientropy"
	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// PlanFunc runs the planning pipeline on m. attempt is 0 on the first try
// and increments across serve-level retries, letting implementations vary
// the seed so a retry is not a deterministic replay of the failure.
type PlanFunc func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error)

// PipelinePlan is the production PlanFunc: bootes.PlanContext under opts.
// Attempt i plans at seed opts.Seed + i·0x9E3779B9, so a transient
// eigensolver failure is not deterministically replayed, and the request
// deadline becomes the wall-clock budget, so expiry degrades the plan
// instead of failing it.
func PipelinePlan(opts bootes.Options) PlanFunc {
	return func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		o := opts
		o.Seed += int64(attempt) * 0x9E3779B9
		if dl, ok := ctx.Deadline(); ok {
			o.Budget.MaxWallClock = time.Until(dl)
		}
		plan, err := bootes.PlanContext(ctx, m, &o)
		if err != nil {
			return nil, err
		}
		return &reorder.Result{
			Perm:           plan.Perm,
			Reordered:      plan.Reordered,
			Degraded:       plan.Degraded,
			DegradedReason: plan.DegradedReason,
			SimilarityMode: plan.SimilarityMode,
			AutoK:          plan.AutoK,
			PreprocessTime: time.Duration(plan.PreprocessSeconds * float64(time.Second)),
			FootprintBytes: plan.FootprintBytes,
			Extra:          map[string]float64{"k": float64(plan.K)},
		}, nil
	}
}

// Config assembles a Server.
type Config struct {
	// Plan is the planning pipeline (required).
	Plan PlanFunc
	// Cache is the persistent plan cache; nil disables caching.
	Cache *plancache.Cache
	// Queue is the durable async plan queue behind POST /v1/plan?async=1 and
	// GET /v1/jobs/{id}; nil answers async submissions with 501. The queue's
	// lifecycle belongs to the caller, who starts it with the server's RunJob
	// (fleet.StartNode does, and drains it alongside the HTTP server).
	Queue *planqueue.Queue
	// Tenants is the per-tenant traffic-shaping policy (token-bucket quotas,
	// identified by X-Tenant or ?tenant=). A zero Rate with no Overrides
	// disables quota enforcement.
	Tenants TenantConfig
	// MaxInFlight bounds concurrently executing pipelines (default 4).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed with 429 (default 2×MaxInFlight).
	MaxQueue int
	// DefaultDeadline caps a request that sends no X-Deadline (default 60s).
	// A request's deadline also becomes the pipeline's wall-clock budget.
	DefaultDeadline time.Duration
	// MaxRetries re-runs a pipeline whose plan came back transiently
	// degraded (eigensolver non-convergence, contained panic) with
	// exponential backoff + jitter (default 2; negative disables).
	MaxRetries int
	// RetryBackoff is the first backoff step (default 50ms); step i sleeps
	// RetryBackoff·2^i plus up to 50% jitter.
	RetryBackoff time.Duration
	// Breaker configures the degradation circuit breaker; a zero
	// FailureThreshold disables it.
	Breaker BreakerConfig
	// MaxUploadBytes bounds the request body (default 256 MB).
	MaxUploadBytes int64
	// UploadReadTimeout bounds how long a request may take to deliver its
	// matrix body (default 30s). MaxBytesReader caps how *much* a client may
	// send; this caps how *slowly* — a slowloris client trickling one byte a
	// second holds a connection, not a pipeline slot, and is cut off here.
	// Negative disables; ignored on transports without read-deadline
	// support (tests).
	UploadReadTimeout time.Duration
	// AllowLocalPaths permits `{"path": ...}` / ?path= requests that read a
	// matrix from the server's filesystem. Off by default: enable only for
	// trusted local clients (the bootesd -allow-path flag).
	AllowLocalPaths bool
	// PeerFill, when set, is consulted on a local cache miss before the
	// pipeline runs: it asks the key's replica set (internal/fleet) whether a
	// sibling already holds the plan. A hit is verified, replicated into the
	// local cache, and used without computing — the fleet-wide
	// compute-once-per-replica-set property rests on this hook.
	PeerFill func(ctx context.Context, key string) (*plancache.Entry, bool)
	// Replicate, when set, is called after the pipeline's successful cache
	// write with the entry's key (internal/antientropy pushes the fresh plan
	// to the key's other replicas, parking hints for down ones). Called
	// synchronously on the admitted request's or the job's goroutine —
	// implementations bound their own network time. Peer-filled entries are
	// not re-announced: they came from the replica set already.
	Replicate func(key string)
	// Heal, when set, contributes the anti-entropy healer's counters to
	// /statsz (the healer's lifecycle belongs to the caller, like Queue's).
	Heal *antientropy.Healer
	// AutoK marks responses from this server as planned under eigengap
	// auto-k: cache-hit responses report AutoK "cached" (the per-attempt
	// outcome string is not persisted in cache entries). Purely cosmetic for
	// the response body — the PlanFunc decides whether auto-k actually runs.
	AutoK bool
	// Seed seeds the retry jitter (deterministic tests); 0 uses a fixed seed.
	Seed int64
	// Metrics is the registry the server's serving counters register on and
	// the pipeline's stage spans record into; GET /metrics exposes it merged
	// with obs.Default(). nil scopes the server to a private registry, so
	// several servers in one process (tests) never share counts. Use one
	// registry per server: the breaker/cache view functions re-bind on reuse.
	Metrics *obs.Registry
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// Logf sinks serve-path diagnostics (cache write failures, breaker
	// transitions); nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Stats is the /statsz payload.
type Stats struct {
	// Served counts completed /v1/plan responses, by outcome.
	Served, Shed, Coalesced, Degraded, BreakerShortCircuits int64
	// Retries counts serve-level pipeline re-runs (sync and async).
	Retries int64
	// VerifyViolations counts plan-verification violations observed by this
	// server (corrupt cached entries treated as misses, pipeline plans
	// replaced by identity). Any non-zero value is worth an operator's look.
	VerifyViolations int64
	// TenantShed counts requests rejected by per-tenant quotas (sync and
	// async alike); AsyncRejected counts async submissions refused by queue
	// backlog bounds.
	TenantShed, AsyncRejected int64
	// PeerFills counts local cache misses answered by a fleet sibling's
	// cache instead of a pipeline run.
	PeerFills int64
	// InFlight / Queued are instantaneous gauges.
	InFlight, Queued int64
	// Draining reports shutdown in progress.
	Draining bool
	// Breaker is the circuit state ("closed", "open", "half-open").
	Breaker string
	// BreakerTrips counts closed→open transitions.
	BreakerTrips int64
	// Cache is the plan cache's own counters (zero when caching is off).
	Cache plancache.Stats
	// Queue is the async queue's counters (nil when async is off).
	Queue *planqueue.Stats `json:",omitempty"`
	// Heal is the anti-entropy healer's counters (nil when self-healing is
	// off).
	Heal *antientropy.Stats `json:",omitempty"`
}

// Server serves planning requests over HTTP. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	sem     chan struct{}
	breaker *Breaker
	flights flightGroup
	mux     *http.ServeMux
	limiter *tenantLimiter
	memo    *BodyMemo

	jitterMu sync.Mutex
	jitter   *rand.Rand

	draining atomic.Bool
	warming  atomic.Bool
	inflight sync.WaitGroup // tracks admitted pipeline executions

	// Serving counters live on reg (Config.Metrics or a private registry);
	// Stats() and /statsz read the same instruments /metrics exposes.
	reg                                                      *obs.Registry
	served, shed, coalesced, degraded, retries, breakerShort *obs.Counter
	verifyBad, asyncRejected, peerFills                      *obs.Counter
	running, queued                                          *obs.Gauge
	latency                                                  *obs.HistogramVec
}

// New validates cfg, applies defaults, and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Plan == nil {
		return nil, errors.New("planserve: Config.Plan is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 2 * cfg.MaxInFlight
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.UploadReadTimeout == 0 {
		cfg.UploadReadTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		breaker: NewBreaker(cfg.Breaker, cfg.Now),
		jitter:  rand.New(rand.NewSource(seed)),
	}
	s.registerMetrics(cfg.Metrics)
	s.limiter = newTenantLimiter(cfg.Tenants, cfg.Now, s.reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	s.mux.HandleFunc("GET /v1/cache/digest", s.handleCacheDigest)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// registerMetrics binds the server's counters to reg (nil: a private
// registry). The breaker, drain flag, and plan cache keep their own state and
// are exposed as view functions read at exposition time, so /statsz and
// /metrics can never disagree about them.
func (s *Server) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	s.served = reg.Counter("bootes_serve_served_total", "Completed /v1/plan responses.")
	s.shed = reg.Counter("bootes_serve_shed_total", "Requests shed by admission control (429).")
	s.coalesced = reg.Counter("bootes_serve_coalesced_total", "Requests that rode a concurrent identical flight.")
	s.degraded = reg.Counter("bootes_serve_degraded_total", "Responses carrying a degraded plan.")
	s.retries = reg.Counter("bootes_serve_retries_total", "Serve-level pipeline re-runs of transiently degraded plans.")
	s.breakerShort = reg.Counter("bootes_serve_breaker_short_circuits_total", "Requests answered by the breaker's identity fast-path.")
	s.verifyBad = reg.Counter("bootes_serve_verify_violations_total", "Plan-verification violations observed by this server.")
	s.asyncRejected = reg.Counter("bootes_serve_async_rejected_total", "Async submissions rejected by queue backlog bounds (429).")
	s.peerFills = reg.Counter("bootes_serve_peer_fills_total", "Local cache misses answered by a fleet sibling's cache.")
	s.memo = NewBodyMemo(
		reg.Counter("bootes_serve_body_memo_hits_total", "Plan request bodies resolved from the body memo, without a parse."),
		reg.Counter("bootes_serve_body_memo_misses_total", "Plan request bodies the body memo did not know, parsed instead."))
	s.running = reg.Gauge("bootes_serve_inflight", "Pipelines currently executing.")
	s.queued = reg.Gauge("bootes_serve_queued", "Requests waiting for an in-flight slot.")
	s.latency = reg.HistogramVec("bootes_serve_latency_seconds",
		"End-to-end /v1/plan request latency by outcome (ok, shed, error).",
		latencyBuckets, "outcome")
	reg.CounterFunc("bootes_serve_breaker_trips_total", "Circuit breaker closed-to-open transitions.", func() int64 {
		_, trips := s.breaker.Snapshot()
		return trips
	})
	reg.GaugeFunc("bootes_serve_breaker_state", "Circuit breaker position: 0 closed, 1 open, 2 half-open.", func() int64 {
		state, _ := s.breaker.Snapshot()
		return int64(state)
	})
	reg.GaugeFunc("bootes_serve_draining", "1 while graceful shutdown is in progress.", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("bootes_serve_warming", "1 while start-up warm-up holds readiness at 503.", func() int64 {
		if s.warming.Load() {
			return 1
		}
		return 0
	})
	if c := s.cfg.Cache; c != nil {
		reg.CounterFunc("bootes_cache_hits_total", "Plan cache hits.", func() int64 { return c.Stats().Hits })
		reg.CounterFunc("bootes_cache_misses_total", "Plan cache misses.", func() int64 { return c.Stats().Misses })
		reg.CounterFunc("bootes_cache_puts_total", "Plan cache writes.", func() int64 { return c.Stats().Puts })
		reg.CounterFunc("bootes_cache_write_errors_total", "Plan cache writes that failed.", func() int64 { return c.Stats().WriteErrors })
		reg.CounterFunc("bootes_cache_quarantined_total", "Corrupt cache entries quarantined.", func() int64 { return c.Stats().Quarantined })
		reg.GaugeFunc("bootes_cache_entries", "Plan cache entries on disk.", func() int64 { return int64(c.Stats().Entries) })
	}
}

// Handler returns the HTTP handler for the server's endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// SlotsInUse returns the number of admission (in-flight) semaphore slots
// currently held. At rest it must be 0 — the invariant leakcheck and the
// chaos harness assert after every episode: a non-zero reading with no
// requests in flight means an admitted request leaked its slot.
func (s *Server) SlotsInUse() int { return len(s.sem) }

// Shutdown performs the graceful drain: new plan requests are refused with
// 503 immediately, then Shutdown blocks until every admitted pipeline has
// finished (their cache writes are synchronous, so returning implies the
// cache is flushed) or ctx expires, whichever is first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("planserve: drain deadline exceeded with %d plans in flight: %w",
			s.running.Value(), ctx.Err())
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	state, trips := s.breaker.Snapshot()
	st := Stats{
		Served:               s.served.Value(),
		Shed:                 s.shed.Value(),
		Coalesced:            s.coalesced.Value(),
		Degraded:             s.degraded.Value(),
		BreakerShortCircuits: s.breakerShort.Value(),
		Retries:              s.retries.Value(),
		VerifyViolations:     s.verifyBad.Value(),
		InFlight:             s.running.Value(),
		Queued:               s.queued.Value(),
		Draining:             s.draining.Load(),
		Breaker:              state.String(),
		BreakerTrips:         trips,
	}
	st.AsyncRejected = s.asyncRejected.Value()
	st.PeerFills = s.peerFills.Value()
	if s.limiter != nil {
		st.TenantShed = s.limiter.shedTotal.Value()
	}
	if s.cfg.Cache != nil {
		st.Cache = s.cfg.Cache.Stats()
	}
	if s.cfg.Queue != nil {
		qs := s.cfg.Queue.Stats()
		st.Queue = &qs
	}
	if s.cfg.Heal != nil {
		hs := s.cfg.Heal.Stats()
		st.Heal = &hs
	}
	return st
}

// SetWarming flips the start-up warm-up gate. While set, /readyz answers 503
// (fleet probes keep routing around this node) but every other endpoint —
// including the peer cache-fill and digest reads warm-up itself depends on —
// serves normally. bootesd sets it before streaming owned key ranges from
// replicas and clears it when the warm-up finishes or its deadline expires.
func (s *Server) SetWarming(v bool) { s.warming.Store(v) }

// PlanResponse is the /v1/plan JSON body.
type PlanResponse struct {
	Key               string  `json:"key"`
	Reordered         bool    `json:"reordered"`
	K                 int     `json:"k"`
	Degraded          bool    `json:"degraded"`
	DegradedReason    string  `json:"degradedReason,omitempty"`
	PreprocessSeconds float64 `json:"preprocessSeconds"`
	FootprintBytes    int64   `json:"footprintBytes"`
	Rows              int     `json:"rows"`
	// SimilarityMode names the similarity tier the spectral pass ran
	// ("exact", "approx", "implicit"); empty when no spectral pass ran
	// this request (gate decline, identity fallback, cache hit).
	SimilarityMode string `json:"similarityMode,omitempty"`
	// AutoK reports the eigengap auto-k outcome for this plan ("selected: …",
	// "fallback-ambiguous: …", "fallback-implicit: …", "degraded", or
	// "cached" for a cache hit planned under auto-k); empty when the server
	// does not run auto-k.
	AutoK string `json:"autoK,omitempty"`
	// Cached is true when the plan came from the persistent cache;
	// Coalesced when it was computed by a concurrent identical request;
	// Breaker is "open" when the identity fast-path answered; PeerFilled
	// marks a local miss answered from a fleet sibling's cache.
	Cached     bool   `json:"cached,omitempty"`
	Coalesced  bool   `json:"coalesced,omitempty"`
	Breaker    string `json:"breaker,omitempty"`
	PeerFilled bool   `json:"peerFilled,omitempty"`
	// Perm is included only when the request asked with ?perm=1.
	Perm []int32 `json:"perm,omitempty"`
}

// HealthResponse is the healthz/readyz JSON body: enough for fleet routing
// (and operators) to see not just up/down but how loaded and how drained a
// node is. QueueDepth counts async jobs ready to run; Queued counts sync
// requests waiting for an admission slot.
type HealthResponse struct {
	Status     string `json:"status"` // "ok", "warming", or "draining"
	Draining   bool   `json:"draining"`
	Warming    bool   `json:"warming,omitempty"`
	InFlight   int64  `json:"inFlight"`
	Queued     int64  `json:"queued"`
	QueueDepth int64  `json:"queueDepth"`
}

func (s *Server) health() HealthResponse {
	h := HealthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Warming:  s.warming.Load(),
		InFlight: s.running.Value(),
		Queued:   s.queued.Value(),
	}
	if h.Warming {
		h.Status = "warming"
	}
	if h.Draining {
		h.Status = "draining"
	}
	if s.cfg.Queue != nil {
		h.QueueDepth = s.cfg.Queue.Stats().Depth
	}
	return h
}

// handleHealthz is liveness: always 200 while the process serves HTTP, even
// during drain — a draining node is alive, just not admitting.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(s.health())
}

// handleReadyz is admission: 503 while draining or warming, so fleet health
// probes drop the node out of routing — a draining node is leaving, a
// warming node has not finished streaming its owned key ranges from its
// replicas yet — and new work flows to its peers instead.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Draining || h.Warming {
		w.WriteHeader(http.StatusServiceUnavailable)
	} else {
		w.WriteHeader(http.StatusOK)
	}
	_ = json.NewEncoder(w).Encode(h)
}

// handleCacheGet is the peer cache-fill endpoint: a sibling with a local miss
// asks whether this node's cache holds the key. The reply is the raw encoded
// entry (same CRC-checked container the disk holds), 404 on a miss. Reads
// stay available during drain — fills are cheap and help the surviving fleet.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		http.Error(w, "no plan cache on this node", http.StatusNotFound)
		return
	}
	e, ok := s.cfg.Cache.Peek(r.PathValue("key"))
	if !ok {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// handleCachePut is the anti-entropy ingest endpoint: replication pushes,
// hint deliveries, and drain handoffs all land here. The body is a raw
// encoded entry; it is decoded (CRC-checked), key-matched, and field-verified
// before it can touch the cache, and degraded entries are refused outright —
// the same bar every other ingest path applies. When the local cache already
// holds different bytes for the key, the canonical (lexicographically
// smaller) encoded byte string wins; the rule is symmetric with the repair
// loop's pull side, so replicas converge no matter which direction repairs.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		http.Error(w, "no plan cache on this node", http.StatusNotFound)
		return
	}
	key := r.PathValue("key")
	data, err := io.ReadAll(io.LimitReader(r.Body, antientropy.MaxEntryBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, err := plancache.DecodeEntry(data)
	if err != nil {
		http.Error(w, fmt.Sprintf("undecodable entry: %v", err), http.StatusBadRequest)
		return
	}
	if e.Key != key {
		http.Error(w, fmt.Sprintf("entry key %.12s does not match path key %.12s", e.Key, key), http.StatusBadRequest)
		return
	}
	if e.Degraded {
		http.Error(w, "degraded plans do not replicate", http.StatusBadRequest)
		return
	}
	if vs := planverify.CheckEntryFields(len(e.Perm), e.Perm, e.K, e.Reordered, e.Degraded, e.DegradedReason); len(vs) > 0 {
		planverify.Record(planverify.SiteCachePut, vs...)
		s.verifyBad.Add(int64(len(vs)))
		http.Error(w, fmt.Sprintf("entry failed verification: %v", vs), http.StatusBadRequest)
		return
	}
	if local, ok := s.cfg.Cache.Peek(key); ok {
		if localData, err := plancache.EncodeEntry(local); err == nil &&
			bytes.Compare(localData, data) <= 0 {
			// The local copy is canonical (or identical): keep it. 204 — the
			// push achieved its goal, the replica set holds the key.
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	if err := s.cfg.Cache.Put(e); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleCacheDigest serves the anti-entropy digest: every cached key's
// (size, CRC32) summary in ascending key order. ?prefix= restricts the range
// (hex keys partition evenly by leading nibbles). Like cache reads, digests
// stay available during drain and warm-up — peers repairing from this node
// is exactly what those phases want.
func (s *Server) handleCacheDigest(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		http.Error(w, "no plan cache on this node", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(antientropy.DigestOf(s.cfg.Cache, r.URL.Query().Get("prefix")))
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// handleMetrics renders the server's registry merged with the process-wide
// Default registry (stage-span histograms recorded outside a request context,
// the planverify mirror) in the Prometheus text format. When Config.Metrics
// is Default itself the merge degenerates to a single registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteMerged(w, s.reg, obs.Default())
}

// latencyBuckets covers sub-10ms cache hits through multi-minute pipeline
// runs; cmd/loadgen derives its p99 SLO check from these bounds.
var latencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// statusWriter records the response code so the latency histogram can label
// by outcome. Unwrap keeps http.NewResponseController (the upload read
// deadline) working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// latencyOutcome buckets a status code for the latency histogram's label.
func latencyOutcome(code int) string {
	switch {
	case code < 300:
		return "ok"
	case code == http.StatusTooManyRequests:
		return "shed"
	default:
		return "error"
	}
}

// handlePlan wraps the real handler with the end-to-end latency measurement,
// on the registry clock so the metrics golden stays deterministic.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := s.reg.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.servePlan(sw, r)
	s.latency.With(latencyOutcome(sw.code)).Observe(s.reg.Now().Sub(start).Seconds())
}

func (s *Server) servePlan(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	// Tenant quota: identity lives in the envelope (X-Tenant / ?tenant=), so
	// an over-quota request is shed before a single body byte is buffered.
	tenant := tenantOf(r)
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(tenant); !ok {
			s.limiter.recordShed(tenant)
			w.Header().Set("Retry-After", retryAfterHeader(wait))
			http.Error(w, fmt.Sprintf("tenant %q over request quota", tenant), http.StatusTooManyRequests)
			return
		}
	}
	if d := s.cfg.UploadReadTimeout; d > 0 {
		// Slowloris guard: the whole body must arrive within d. Best-effort —
		// recorders and exotic transports lack deadline support, and a failure
		// to set the deadline must not fail the request.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(d))
	}
	in, err := s.readInput(r)
	if err != nil {
		// An upload over MaxUploadBytes is the client's payload, not its
		// syntax: 413 with the limit, cut off before the server buffers it.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("matrix body exceeds the %d-byte upload limit", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if isAsync(r) {
		m, err := in.matrix()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.handleAsyncSubmit(w, r, m, tenant)
		return
	}
	deadline, err := requestDeadline(r, s.cfg.DefaultDeadline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	// Pipeline stage spans and outcome counters for this request land on the
	// server's registry rather than the process default.
	ctx = obs.WithRegistry(ctx, s.reg)

	key := in.key
	if e, peerFilled := s.lookup(ctx, key, in.rows); e != nil {
		s.served.Inc()
		resp := s.planResponseFromEntry(e)
		resp.PeerFilled = peerFilled
		s.respond(w, r, resp, true, false, "")
		return
	}
	// No plan to hand back: from here on the request needs its matrix.
	m, err := in.matrix()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	runPipeline, probe := s.breaker.Allow()
	if !runPipeline {
		// Identity fast-path: the pipeline is persistently unhealthy, so an
		// immediate, clearly-marked identity plan beats queueing for work
		// that would degrade to the same answer slowly. Never cached.
		s.breakerShort.Inc()
		s.served.Inc()
		s.degraded.Inc()
		res := identityResult(m, "circuit breaker open: pipeline recently degraded repeatedly")
		// Even the locally fabricated fast-path plan goes through the
		// verifier: "no 200 carries an unverified plan" holds with no
		// exceptions (and chaos can corrupt this path like any other).
		if vres, vs := planverify.VerifyResult(planverify.SiteServe, m, res, nil); len(vs) > 0 {
			s.verifyBad.Add(int64(len(vs)))
			res = vres
		}
		s.respond(w, r, planResponseFromResult(key, m, res), false, false, "open")
		return
	}

	res, shared, err := s.flights.do(ctx, key, func() (*reorder.Result, error) {
		return s.runAdmitted(ctx, m, key, probe)
	})
	if shared {
		s.coalesced.Inc()
		if probe {
			// We claimed the half-open probe but rode an existing flight
			// instead of running the pipeline; free the slot for the next
			// request.
			s.breaker.CancelProbe()
		}
	}
	if err != nil {
		if probe && !shared {
			// The probe died before producing a pipeline outcome (shed or
			// out of time): no verdict either way, release the slot.
			s.breaker.CancelProbe()
		}
		switch {
		case errors.Is(err, errShed):
			w.Header().Set("Retry-After", "1")
			s.shed.Inc()
			http.Error(w, "overloaded: in-flight and queue limits reached", http.StatusTooManyRequests)
		case errors.Is(err, context.DeadlineExceeded):
			http.Error(w, "deadline exceeded before a plan was produced", http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			http.Error(w, "request cancelled", 499) // client closed request
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}

	if res.Degraded {
		s.degraded.Inc()
	}
	s.served.Inc()
	s.respond(w, r, planResponseFromResult(key, m, res), false, shared, "")
}

// errShed marks a request rejected by admission control.
var errShed = errors.New("planserve: load shed")

// RunJob is the planqueue.RunFunc for async jobs: the sync path's lookup,
// else its pipeline with retries and then persist. Jobs take no admission
// slot, join no flight and skip the breaker: the queue's workers are their
// admission.
func (s *Server) RunJob(ctx context.Context, key string, m *sparse.CSR) (res *reorder.Result, cached bool, err error) {
	ctx = obs.WithRegistry(ctx, s.reg)
	if e, _ := s.lookup(ctx, key, m.Rows); e != nil {
		return resultFromEntry(e), true, nil
	}
	if res, err = s.planWithRetry(ctx, m); err != nil {
		return nil, false, err
	}
	s.persist(key, res)
	return res, false, nil
}

// lookup finds a plan for key without computing one: a verified local cache
// hit, else a verified entry from the key's replica set (fleet peer fill),
// which is copied into the local cache and marked peerFilled.
func (s *Server) lookup(ctx context.Context, key string, rows int) (e *plancache.Entry, peerFilled bool) {
	if e, ok := s.cached(key, rows); ok {
		return e, false
	}
	if s.cfg.PeerFill == nil {
		return nil, false
	}
	e, ok := s.cfg.PeerFill(ctx, key)
	if !ok || e == nil || !s.verified(e, rows, "peer-filled") {
		return nil, false
	}
	s.peerFills.Inc()
	if s.cfg.Cache != nil {
		if err := s.cfg.Cache.Put(e); err != nil {
			s.cfg.Logf("planserve: replicating peer-filled plan %.12s failed: %v", key, err)
		}
	}
	return e, true
}

// cached returns key's local cache entry if it verifies for rows rows.
func (s *Server) cached(key string, rows int) (*plancache.Entry, bool) {
	if s.cfg.Cache == nil {
		return nil, false
	}
	e, ok := s.cfg.Cache.Get(key)
	return e, ok && s.verified(e, rows, "cached")
}

// verified re-checks a cache or peer entry before it is used as the plan for
// a rows-row matrix; on a violation, counted and logged, the caller treats
// the entry as a miss, and a recomputation overwrites it.
func (s *Server) verified(e *plancache.Entry, rows int, source string) bool {
	vs := planverify.CheckEntryFields(rows, e.Perm, e.K, e.Reordered, e.Degraded, e.DegradedReason)
	if len(vs) == 0 {
		return true
	}
	planverify.Record(planverify.SiteServeHit, vs...)
	s.verifyBad.Add(int64(len(vs)))
	s.cfg.Logf("planserve: %s plan %.12s failed verification, treated as a miss: %v", source, e.Key, vs)
	return false
}

// persist writes a computed plan to the cache, healthy plans only, and
// announces it to the rest of the replica set.
func (s *Server) persist(key string, res *reorder.Result) {
	if s.cfg.Cache == nil || res.Degraded {
		return
	}
	if err := s.cfg.Cache.Put(plancache.EntryFromResult(key, res)); err != nil {
		// A durability loss, not a serving failure: the plan is still correct.
		s.cfg.Logf("planserve: cache write for %.12s failed: %v", key, err)
		return
	}
	if s.cfg.Replicate != nil {
		// Until it replicates, a fresh plan lives on one node: announce it
		// before returning, so a crash right after cannot orphan it.
		s.cfg.Replicate(key)
	}
}

// runAdmitted is the singleflight leader's path: acquire an execution slot
// (bounded queue, immediate shed beyond it), run the pipeline with retries,
// record the breaker outcome, and persist a healthy plan.
func (s *Server) runAdmitted(ctx context.Context, m *sparse.CSR, key string, probe bool) (*reorder.Result, error) {
	// Leader double-check: between this request's cache miss and its turn as
	// singleflight leader, a concurrent request for the same key may have
	// computed and cached the plan without overlapping this flight — the
	// window is wide when a peer fill's HTTP round-trip sits between the
	// miss and the flight. A verified hit here is served without burning an
	// admission slot or recomputing (the fleet's compute-once property
	// depends on this).
	if e, ok := s.cached(key, m.Rows); ok {
		if probe {
			s.breaker.CancelProbe()
		}
		return resultFromEntry(e), nil
	}
	// Admission: try for a slot without waiting; if the wait queue has
	// room, wait for a slot or the deadline; otherwise shed immediately —
	// an overloaded server must answer 429 in microseconds, not enqueue
	// unboundedly.
	select {
	case s.sem <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			return nil, errShed
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	s.inflight.Add(1)
	s.running.Add(1)
	defer func() {
		<-s.sem
		s.running.Add(-1)
		s.inflight.Done()
	}()

	res, err := s.planWithRetry(ctx, m)
	if err != nil {
		return nil, err
	}
	success := !hardDegraded(res)
	if probe && faultinject.Fire(faultinject.BreakerProbeFail) {
		success = false
	}
	s.breaker.Record(success, probe)
	s.persist(key, res)
	return res, nil
}

// planWithRetry runs the pipeline, re-running transiently degraded plans
// with exponential backoff + jitter. Deterministic degradations (budget,
// memory) and healthy plans return immediately; the last attempt's plan is
// returned even if still degraded.
func (s *Server) planWithRetry(ctx context.Context, m *sparse.CSR) (*reorder.Result, error) {
	var res *reorder.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = s.cfg.Plan(ctx, m, attempt)
		if err != nil {
			return nil, err
		}
		// Every attempt's plan is verified before the server considers it.
		// A corrupt plan becomes a degraded identity plan whose reason
		// ("plan verification failed") classifies as transient, so it is
		// retried like any other transient degradation and, if it persists,
		// counts against the breaker.
		if vres, vs := planverify.VerifyResult(planverify.SiteServe, m, res, nil); len(vs) > 0 {
			s.verifyBad.Add(int64(len(vs)))
			res = vres
		}
		if !res.Degraded || !transientDegradation(res.DegradedReason) || attempt >= s.cfg.MaxRetries {
			return res, nil
		}
		s.retries.Inc()
		backoff := s.cfg.RetryBackoff << attempt
		s.jitterMu.Lock()
		backoff += time.Duration(s.jitter.Int63n(int64(backoff)/2 + 1))
		s.jitterMu.Unlock()
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			// Out of time mid-backoff: the degraded plan in hand is still
			// valid and better than an error.
			return res, nil
		}
	}
}

// transientDegradation classifies a DegradedReason trail (the strings
// core/degrade.go and planverify emit) as retryable: eigensolver
// non-convergence, contained panics, stalled workers and verifier-caught
// corruption may come back clean on a reseeded re-run; budget, memory and
// traffic-regression degradations are deterministic for the same request.
func transientDegradation(reason string) bool {
	return strings.Contains(reason, "did not converge") ||
		strings.Contains(reason, "contained panic") ||
		strings.Contains(reason, "worker") ||
		strings.Contains(reason, "plan verification failed")
}

// hardDegraded reports a plan the breaker should count as a failure: it
// remained transiently degraded after every retry — the pipeline's health,
// not the request's shape, is the problem. (Budget-degraded plans are the
// service working as designed and never trip the breaker.)
func hardDegraded(res *reorder.Result) bool {
	return res.Degraded && transientDegradation(res.DegradedReason)
}

// identityResult fabricates the breaker's identity fast-path plan.
func identityResult(m *sparse.CSR, reason string) *reorder.Result {
	return &reorder.Result{
		Perm:           sparse.IdentityPerm(m.Rows),
		Reordered:      false,
		Degraded:       true,
		DegradedReason: reason,
	}
}

// requestDeadline derives the effective deadline: X-Deadline (a Go duration
// such as "500ms" or "2s") when present and shorter than the server cap.
func requestDeadline(r *http.Request, def time.Duration) (time.Duration, error) {
	h := r.Header.Get("X-Deadline")
	if h == "" {
		return def, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid X-Deadline %q: want a positive Go duration", h)
	}
	return min(d, def), nil
}

// routedKey is the context key under which WithRoutedMatrix hands over a
// resolved request.
type routedKey struct{}

// planInput is what a plan request resolved to before any cache lookup: the
// plan key and row count, and the matrix once parsed. body is the upload,
// held only until it is parsed.
type planInput struct {
	key  string
	rows int
	m    *sparse.CSR
	body []byte
}

// matrix returns the request's matrix, parsing the body if no one has yet,
// and lets go of the body: a pipeline run does not pin the upload.
func (in *planInput) matrix() (*sparse.CSR, error) {
	if in.m == nil {
		m, err := sparse.ReadBody(in.body)
		if err != nil {
			return nil, err
		}
		in.m = m
	}
	in.body = nil
	return in.m, nil
}

// WithRoutedMatrix returns r carrying what a router resolved its body to: the
// plan key plancache.KeyCSR gives the body's matrix, its row count, the body
// itself, and the matrix when the router parsed it (nil when its memo
// answered). The server then neither reads nor hashes r.Body, and parses body
// only when it must plan. The upload limit still applies to the body.
func WithRoutedMatrix(r *http.Request, key string, rows int, body []byte, m *sparse.CSR) *http.Request {
	in := &planInput{key: key, rows: rows, m: m, body: body}
	return r.WithContext(context.WithValue(r.Context(), routedKey{}, in))
}

// readInput resolves the request to its plan key and row count: one handed
// over by a router, a server-local ?path= when enabled (parsed every time,
// since the file can change between two identical requests), or the body,
// through the memo.
func (s *Server) readInput(r *http.Request) (*planInput, error) {
	if in, ok := r.Context().Value(routedKey{}).(*planInput); ok {
		if int64(len(in.body)) > s.cfg.MaxUploadBytes {
			return nil, &http.MaxBytesError{Limit: s.cfg.MaxUploadBytes}
		}
		return in, nil
	}
	if path := r.URL.Query().Get("path"); path != "" {
		if !s.cfg.AllowLocalPaths {
			return nil, errors.New("path requests are disabled (start bootesd with -allow-path)")
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var m *sparse.CSR
		if filepath.Ext(path) == ".bcsr" {
			m, err = sparse.ReadBinary(f)
		} else {
			m, err = sparse.ReadMatrixMarket(f)
		}
		if err != nil {
			return nil, err
		}
		return &planInput{key: plancache.KeyCSR(m), rows: m.Rows, m: m}, nil
	}
	body, err := ReadRequestBody(r, s.cfg.MaxUploadBytes)
	if err != nil {
		return nil, fmt.Errorf("reading matrix body: %w", err)
	}
	key, rows, m, err := s.memo.Resolve(body)
	if err != nil {
		return nil, err
	}
	return &planInput{key: key, rows: rows, m: m, body: body}, nil
}
