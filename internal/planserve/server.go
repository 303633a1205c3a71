// Package planserve is the resilient plan-serving layer behind cmd/bootesd:
// it fronts the fault-tolerant planning pipeline with a crash-safe plan
// cache, admission control with load shedding, request coalescing, reseeded
// retry of transient degradations, a degradation circuit breaker, and
// graceful drain.
//
// Request lifecycle for POST /v1/plan:
//
//	admission (draining ⇒ 503, tenant over quota ⇒ 429) → read body
//	  → key and row count (from the body memo when these exact bytes were
//	    parsed before, parsed otherwise) → lookup (verified cache hit or
//	    peer fill)
//	  → parse, if not yet parsed
//	  → breaker check (open ⇒ immediate identity plan, marked, never cached)
//	  → singleflight join (followers wait, consuming no slot)
//	  → leader: admission (bounded in-flight + bounded queue; full ⇒ 429)
//	  → pipeline with per-request deadline, re-planning transient
//	    degradations at once on a reseeded attempt
//	  → persist (cache write of healthy plans, then replication) → respond
//
// On a fleet node a client's request is read and keyed first, then offered
// to Config.Route, which forwards it to the key's owner or hands it back to
// be admitted and served here. The owner is asked by key first (KeyHeader):
// it answers a cached plan with no body sent, and asks for the body
// (SendBodyHeader) otherwise.
//
// Async jobs take the same lookup, pipeline and persist through RunJob.
package planserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
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
// eigensolver failure is not deterministically replayed. The request's
// deadline bounds the plan: reaching it mid-plan degrades the plan to the
// identity instead of failing it.
func PipelinePlan(opts bootes.Options) PlanFunc {
	return func(ctx context.Context, m *sparse.CSR, attempt int) (*reorder.Result, error) {
		o := opts
		o.Seed += int64(attempt) * 0x9E3779B9
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
	// identified by X-Tenant or ?tenant=). A zero Rate disables quota
	// enforcement.
	Tenants TenantConfig
	// MaxInFlight bounds concurrently executing pipelines (default 4).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are shed with 429 (default 2×MaxInFlight).
	MaxQueue int
	// DefaultDeadline caps a request that sends no X-Deadline (default 60s).
	// A pipeline still running at a request's deadline degrades its plan to
	// the identity rather than failing the request.
	DefaultDeadline time.Duration
	// MaxRetries is how many times a pipeline whose plan came back
	// transiently degraded (eigensolver non-convergence, contained panic,
	// verifier-caught corruption) is re-run at once on the next attempt's
	// seed; 0 never re-runs a plan.
	MaxRetries int
	// Breaker configures the degradation circuit breaker; a zero
	// FailureThreshold disables it.
	Breaker BreakerConfig
	// MaxUploadBytes bounds the request body (default 256 MB). How slowly a
	// body may arrive is the HTTP server's business (fleet.NodeConfig's
	// UploadReadTimeout).
	MaxUploadBytes int64
	// AllowLocalPaths permits ?path= requests that read a matrix from the
	// server's filesystem. Off by default: enable only for trusted local
	// clients (the bootesd -allow-path flag).
	AllowLocalPaths bool
	// PeerFill, when set, is consulted on a local cache miss before the
	// pipeline runs: it asks the key's replica set (internal/fleet) whether a
	// sibling already holds the plan. A hit is verified, replicated into the
	// local cache, and used without computing — the fleet-wide
	// compute-once-per-replica-set property rests on this hook.
	PeerFill func(ctx context.Context, key string) (*plancache.Entry, bool)
	// Replicate, when set, is called after the pipeline's successful cache
	// write with the entry's key (internal/antientropy pushes the fresh plan
	// to the key's other up replicas; a down one pulls it later). Called
	// synchronously on the admitted request's or the job's goroutine —
	// implementations bound their own network time. Peer-filled entries are
	// not re-announced: they came from the replica set already.
	Replicate func(key string)
	// Route, when set, is offered each client plan request (not a peer's
	// forward, ?async=1 or ?path=) once its body is read and keyed to key and
	// rows, the matrix's row count. It returns true when it answered the
	// request by forwarding it, false to have it admitted and served here.
	// The caller holds a reference to body for the length of the call; a
	// forward that may read the bytes after Route returns (net/http closes a
	// request body asynchronously) reads them through body.NewReader, which
	// holds its own. fleet.StartNode sets it to the fleet router's Route.
	Route func(w http.ResponseWriter, r *http.Request, key string, rows int, body *Body) bool
	// Heal, when set, contributes the anti-entropy healer's counters to
	// /statsz and opens the replica ingest, PUT /v1/cache/{key}, which is
	// not served without it (the healer's lifecycle belongs to the caller,
	// like Queue's).
	Heal *antientropy.Healer
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

// ForwardedHeader marks a plan request a fleet peer already routed: it is
// served where it arrives, never offered to Config.Route again, so a request
// is forwarded at most once.
const ForwardedHeader = "X-Bootes-Forwarded"

// A fleet peer's read by key is a forwarded plan request with no body that
// carries KeyHeader and RowsHeader: the plan key and row count the entry
// node resolved for its client's body. It is answered with the plan when
// this node holds a verified one for them, and otherwise with SendBodyHeader
// on a 404, after which the peer forwards the body. The headers count only
// on a request that also carries ForwardedHeader.
const (
	KeyHeader      = "X-Bootes-Key"
	RowsHeader     = "X-Bootes-Rows"
	SendBodyHeader = "X-Bootes-Send-Body"
)

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
	breaker *breaker
	flights flightGroup[admitted]
	mux     *http.ServeMux
	limiter *tenantLimiter
	memo    *bodyMemo

	draining atomic.Bool
	warming  atomic.Bool
	inflight sync.WaitGroup // tracks admitted pipeline executions
	bodyRefs atomic.Int64   // outstanding request-body references

	// Serving counters live on reg (Config.Metrics or a private registry);
	// Stats() and /statsz read the same instruments /metrics exposes.
	reg                                                      *obs.Registry
	served, shed, coalesced, degraded, retries, breakerShort *obs.Counter
	verifyBad, asyncRejected, peerFills                      *obs.Counter
	running, queued                                          *obs.Gauge
	latency                                                  *obs.HistogramVec
}

// WithDefaults returns cfg with every unset setting at its default, the
// value New builds the server with. It is idempotent.
func (cfg Config) WithDefaults() Config {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 2 * cfg.MaxInFlight
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return cfg
}

// New validates cfg, applies its defaults, and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Plan == nil {
		return nil, errors.New("planserve: Config.Plan is required")
	}
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		breaker: newBreaker(cfg.Breaker, cfg.Now),
	}
	s.registerMetrics(cfg.Metrics)
	s.limiter = newTenantLimiter(cfg.Tenants, cfg.Now, s.reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	if cfg.Heal != nil {
		s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	}
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
	s.memo = newBodyMemo(
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

// BodyRefs returns the number of references to request bodies this server
// read that are still held: by handlers, and by forwards of their bytes to
// peers. At rest it must settle to 0, which the chaos harness asserts after
// every episode; net/http closes a forward's body asynchronously, so the
// check polls. A reference never released keeps its buffer out of the pool.
func (s *Server) BodyRefs() int64 { return s.bodyRefs.Load() }

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
	// AutoK is never set by the server, so the JSON omits it: it held the
	// outcome of the retired auto-k planning rung. e2ebench's per-layer
	// replay still sets it, so it goes with that code.
	AutoK string `json:"autoK,omitempty"`
	// Cached is true when the plan came from the persistent cache;
	// Coalesced when it was computed by a concurrent identical request;
	// Breaker is "open" when the identity fast-path answered; PeerFilled
	// marks a local miss answered from a fleet sibling's cache.
	Cached     bool   `json:"cached,omitempty"`
	Coalesced  bool   `json:"coalesced,omitempty"`
	Breaker    string `json:"breaker,omitempty"`
	PeerFilled bool   `json:"peerFilled,omitempty"`
	// Perm is included only when the request asked with ?perm=1. It stays
	// the last field: respond writes a cache hit's kept encoding of it after
	// the rest of the response.
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
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
	e, ok := s.cfg.Cache.Peek(key)
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

// handleCachePut is the anti-entropy ingest endpoint, served only on a
// self-healing node: replication pushes, handoffs of entries the ring moved
// elsewhere, and drain pushes all land here. The body is a raw
// encoded entry; it is decoded (CRC-checked), key-matched, and field-verified
// before it can touch the cache, and degraded entries are refused outright —
// the same bar every other ingest path applies. When the local cache already
// holds different bytes for the key, plancache.Cache.PutCanonical keeps the
// canonical copy, the rule the repair loop's pull side applies too, so
// replicas converge no matter which direction repairs.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cache == nil {
		http.Error(w, "no plan cache on this node", http.StatusNotFound)
		return
	}
	key, ok := pathKey(w, r)
	if !ok {
		return
	}
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
	// 204 whether e was stored or the local copy is canonical: either way the
	// push achieved its goal, the replica set holds the key.
	if _, err := s.cfg.Cache.PutCanonical(e); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// pathKey returns the {key} of a /v1/cache/{key} request, or answers 400 for
// a key not of plancache.KeyCSR's shape: ServeMux unescapes the path, so a
// key could otherwise name a file outside the cache directory.
func pathKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !plancache.ValidKey(key) {
		http.Error(w, "malformed plan key", http.StatusBadRequest)
		return "", false
	}
	return key, true
}

// handleCacheDigest serves the anti-entropy digest: every cached key's
// (size, CRC32) summary in ascending key order. Like cache reads, digests
// stay available during drain and warm-up — peers repairing from this node
// is exactly what those phases want.
func (s *Server) handleCacheDigest(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Cache == nil {
		http.Error(w, "no plan cache on this node", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(antientropy.DigestOf(s.cfg.Cache))
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
// by outcome.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

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

// handlePlan wraps receivePlan with the end-to-end latency measurement, on
// the registry clock so the metrics golden stays deterministic. A request
// Config.Route forwarded is measured by the node that served it.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	start := s.reg.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	if answered := s.receivePlan(sw, r); answered {
		s.latency.With(latencyOutcome(sw.code)).Observe(s.reg.Now().Sub(start).Seconds())
	}
}

// receivePlan admits, reads and keys a plan request and serves it, unless
// Config.Route forwards it. It reports whether this node answered the
// request: not when it forwarded it, nor when a read by key asked for the
// body. A request the router may move is read and keyed first and admitted
// only if it stays, so a node spends no tenant tokens on a request it
// forwards, nor refuses one while draining. Every other request is admitted
// before a byte of its body is buffered.
func (s *Server) receivePlan(w *statusWriter, r *http.Request) (answered bool) {
	forwarded := r.Header.Get(ForwardedHeader) != ""
	if forwarded && r.Header.Get(KeyHeader) != "" {
		return s.readByKey(w, r)
	}
	routable := s.cfg.Route != nil && !forwarded && !isAsync(r) && r.URL.Query().Get("path") == ""
	if !routable && !s.admit(w, r) {
		return true
	}
	in, err := s.readInput(r)
	if err != nil {
		// An upload over MaxUploadBytes is the client's payload, not its
		// syntax: 413 with the limit, cut off before the server buffers it.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("matrix body exceeds the %d-byte upload limit", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return true
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return true
	}
	defer in.release()
	if routable {
		// A forward's answer is relayed on the connection's own writer: it is
		// the serving node's outcome, not this one's.
		if s.cfg.Route(w.ResponseWriter, r, in.key, in.rows, in.body) {
			return false
		}
		if !s.admit(w, r) {
			return true
		}
	}
	s.servePlan(w, r, in)
	return true
}

// readByKey answers a fleet peer's read by key (KeyHeader, RowsHeader): the
// plan key and row count the peer resolved for its client's body, which it
// has not sent. A verified cached plan for them is admitted and served as a
// forwarded request's hit is, so the client gets the same bytes and this
// node spends the request's tenant token. Anything else, a plan of another
// row count included, gets SendBodyHeader, spends no token and records no
// violation: the peer forwards the body next, and this node keys those
// bytes, peer-fills and checks as for any request. So a claimed key is only
// ever a lookup key in the local cache: nothing is planned, filled, cached
// or memoized under it, and a forged read learns only what
// GET /v1/cache/{key} serves anyone. A malformed key or row count, or a
// body, is a 400 before any lookup.
func (s *Server) readByKey(w *statusWriter, r *http.Request) (answered bool) {
	key := r.Header.Get(KeyHeader)
	rows, err := strconv.Atoi(r.Header.Get(RowsHeader))
	switch {
	case !plancache.ValidKey(key):
		http.Error(w, "malformed plan key", http.StatusBadRequest)
		return true
	case err != nil || rows < 0:
		http.Error(w, "malformed row count", http.StatusBadRequest)
		return true
	case r.ContentLength != 0:
		http.Error(w, "a read by key carries no body", http.StatusBadRequest)
		return true
	}
	if _, err := requestDeadline(r, s.cfg.DefaultDeadline); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return true
	}
	var e *plancache.Entry
	if s.cfg.Cache != nil {
		e, _ = s.cfg.Cache.Get(key)
	}
	if e == nil || len(e.Perm) != rows || !s.verified(e, rows, "cached") {
		w.Header().Set(SendBodyHeader, "1")
		http.Error(w, "no plan for this key here: send the body", http.StatusNotFound)
		return false
	}
	if s.admit(w, r) {
		s.serveHit(w, r, e, false)
	}
	return true
}

// admit refuses a request while the server drains (503) and sheds one over
// its tenant's quota (429). Tenant identity lives in the envelope (X-Tenant /
// ?tenant=), so no body byte is needed to decide.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return false
	}
	if s.limiter != nil {
		tenant := tenantOf(r)
		if ok, wait := s.limiter.allow(tenant); !ok {
			s.limiter.recordShed(tenant)
			w.Header().Set("Retry-After", retryAfterHeader(wait))
			http.Error(w, fmt.Sprintf("tenant %q over request quota", tenant), http.StatusTooManyRequests)
			return false
		}
	}
	return true
}

// servePlan serves an admitted request here: an async submission, or the
// sync path from cache lookup to response.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, in *planInput) {
	if in.m != nil {
		in.release() // parsed already: nothing here reads the bytes again
	}
	if isAsync(r) {
		m, err := in.matrix()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.handleAsyncSubmit(w, r, m, tenantOf(r))
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
		in.release()
		s.serveHit(w, r, e, peerFilled)
		return
	}
	// No plan to hand back: from here on the request needs its matrix.
	m, err := in.matrix()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	out, shared, open, err := s.fly(ctx, m, key)
	if open {
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
		s.respond(w, r, planResponseFromResult(key, m, res), nil, false, "open")
		return
	}
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
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

	s.served.Inc()
	if out.hit != nil {
		s.respond(w, r, planResponseFromEntry(out.hit), out.hit, shared, "")
		return
	}
	if out.res.Degraded {
		s.degraded.Inc()
	}
	s.respond(w, r, planResponseFromResult(key, m, out.res), nil, shared, "")
}

// serveHit answers a request with the plan lookup found.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, e *plancache.Entry, peerFilled bool) {
	s.served.Inc()
	resp := planResponseFromEntry(e)
	resp.PeerFilled = peerFilled
	s.respond(w, r, resp, e, false, "")
}

// fly leads key's singleflight, or joins the flight already planning it,
// unless the breaker is open (open reports that no flight ran). A follower
// never inherits its leader's clock: when the leader's deadline or
// cancellation decided the shared outcome and this request's own context is
// still live, it goes round again, leading or joining the next flight. A
// shed, a fault or a plan stays shared.
func (s *Server) fly(ctx context.Context, m *sparse.CSR, key string) (out admitted, shared, open bool, err error) {
	for {
		runPipeline, probe := s.breaker.Allow()
		if !runPipeline {
			return admitted{}, false, true, nil
		}
		out, shared, err = s.flights.do(ctx, key, func() (admitted, error) {
			return s.runAdmitted(ctx, m, key, probe)
		})
		if probe && (shared || err != nil) {
			// The claimed half-open probe rode another request's flight, or
			// died before producing a pipeline outcome (shed or out of
			// time): no verdict either way, so free the slot for the next
			// request or pass.
			s.breaker.CancelProbe()
		}
		if !shared || ctx.Err() != nil || !leaderClocked(out, err) {
			return out, shared, false, err
		}
	}
}

// leaderClocked reports whether a flight's outcome came from its leader's
// context rather than from planning: the leader's deadline or cancellation
// as the error, or a plan degraded to the identity at the leader's deadline.
func leaderClocked(out admitted, err error) bool {
	if err != nil {
		return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	}
	return out.res != nil && out.res.Degraded &&
		strings.Contains(out.res.DegradedReason, "wall-clock budget exhausted")
}

// admitted is what a singleflight leader's runAdmitted produced: the
// pipeline's result, or the cache entry its double-check found instead.
type admitted struct {
	res *reorder.Result
	hit *plancache.Entry
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
func (s *Server) runAdmitted(ctx context.Context, m *sparse.CSR, key string, probe bool) (admitted, error) {
	// Leader double-check: between this request's cache miss and its turn as
	// singleflight leader, a concurrent request for the same key may have
	// computed and cached the plan without overlapping this flight — the
	// window is wide when a peer fill's HTTP round-trip sits between the
	// miss and the flight. A verified hit here is served, as a cache hit,
	// without burning an admission slot or recomputing (the fleet's
	// compute-once property depends on this).
	if e, ok := s.cached(key, m.Rows); ok {
		if probe {
			s.breaker.CancelProbe()
		}
		return admitted{hit: e}, nil
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
			return admitted{}, errShed
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return admitted{}, ctx.Err()
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
		return admitted{}, err
	}
	success := !hardDegraded(res)
	if probe && faultinject.Fire(faultinject.BreakerProbeFail) {
		success = false
	}
	s.breaker.Record(success, probe)
	s.persist(key, res)
	return admitted{res: res}, nil
}

// planWithRetry runs the pipeline, re-running a transiently degraded plan
// at once on the next attempt's seed: no retried cause is fixed by waiting.
// Deterministic degradations (deadline, traffic regression) and
// healthy plans return immediately; the last attempt's plan is returned even
// if still degraded, and so is the plan in hand once ctx is done.
func (s *Server) planWithRetry(ctx context.Context, m *sparse.CSR) (*reorder.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.cfg.Plan(ctx, m, attempt)
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
		// Once ctx is done, the degraded plan in hand is still valid and
		// better than an error.
		if !res.Degraded || !transientDegradation(res.DegradedReason) ||
			attempt >= s.cfg.MaxRetries || ctx.Err() != nil {
			return res, nil
		}
		s.retries.Inc()
	}
}

// transientDegradation classifies a DegradedReason trail (the strings
// core/degrade.go and planverify emit) as retryable: eigensolver
// non-convergence, contained panics and verifier-caught corruption may come
// back clean on a reseeded re-run; deadline and traffic-regression
// degradations are deterministic for the same request.
func transientDegradation(reason string) bool {
	return strings.Contains(reason, "did not converge") ||
		strings.Contains(reason, "contained panic") ||
		strings.Contains(reason, "plan verification failed")
}

// hardDegraded reports a plan the breaker should count as a failure: it
// remained transiently degraded after every retry — the pipeline's health,
// not the request's shape, is the problem. (Plans degraded by the request's
// deadline are the service working as designed and never trip the breaker.)
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

// planInput is what a plan request resolved to before any cache lookup: the
// plan key and row count, and the matrix once parsed. body is the upload,
// whose reference the request holds only until the bytes are parsed or no
// longer needed.
type planInput struct {
	key  string
	rows int
	m    *sparse.CSR
	body *Body
}

// release drops the request's reference to its body, if it still holds one.
func (in *planInput) release() {
	if in.body != nil {
		in.body.Release()
		in.body = nil
	}
}

// matrix returns the request's matrix, parsing the body if no one has yet,
// and lets go of the body: a pipeline run does not pin the upload.
func (in *planInput) matrix() (*sparse.CSR, error) {
	if in.m == nil {
		m, err := sparse.ReadBody(in.body.b)
		if err != nil {
			return nil, err
		}
		in.m = m
	}
	in.release()
	return in.m, nil
}

// readInput resolves the request to its plan key and row count: a
// server-local ?path= when enabled (parsed every time, since the file can
// change between two identical requests), or the body, through the memo.
func (s *Server) readInput(r *http.Request) (*planInput, error) {
	if path := r.URL.Query().Get("path"); path != "" {
		if !s.cfg.AllowLocalPaths {
			return nil, errors.New("path requests are disabled (start bootesd with -allow-path)")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		m, err := sparse.ReadBody(data)
		if err != nil {
			return nil, err
		}
		return &planInput{key: plancache.KeyCSR(m), rows: m.Rows, m: m}, nil
	}
	body, err := readRequestBody(r, s.cfg.MaxUploadBytes, &s.bodyRefs)
	if err != nil {
		return nil, fmt.Errorf("reading matrix body: %w", err)
	}
	key, rows, m, err := s.memo.resolve(body.b)
	if err != nil {
		body.Release()
		return nil, err
	}
	return &planInput{key: key, rows: rows, m: m, body: body}, nil
}
