// Package planqueue is the durable asynchronous planning queue behind
// POST /v1/plan?async=1: a crash-safe, disk-journaled job lifecycle with
// weighted-fair dequeue across tenants, dedupe of live jobs, bounded retries,
// a dead-letter park for poisoned jobs, and exactly-once completion across
// crashes. Planning is the RunFunc's (bootesd's is planserve's RunJob).
//
// Durability and exactly-once:
//
//   - A job is acknowledged (Enqueue returns) only after its enqueue record
//     is fsynced into the journal; the matrix payload is spooled first,
//     content-addressed, through atomicio's atomic-write protocol.
//   - Completion order is: Run (which caches a healthy plan) → journal
//     "done" → spool delete, once "done" is durable. A crash between any two
//     steps is safe: on replay the job returns to queued with its payload,
//     and Run's first step is a plan-cache lookup keyed by the same content
//     hash — if the plan was already produced, the job completes from cache
//     without a second pipeline run. The plan is therefore *produced*
//     exactly once even though the job may be *attempted* twice.
//   - Terminal records are checkpointed and the journal compacted: once
//     enough terminal records accumulate, the file is rewritten (atomically)
//     as one snapshot per live job plus a bounded tail of recent terminal
//     jobs kept for GET /v1/jobs lookups.
//
// Fairness: dequeue is weighted-fair queueing over tenants by job count.
// Each job gets a virtual finish tag F = max(V, F_prev(tenant)) + 1/weight;
// the scheduler always pops the tenant whose head job has the smallest tag
// (an indexed min-heap from internal/prio). A tenant with a 10,000-job
// backlog advances its own tags far into the virtual future and cannot delay
// a light tenant's next job by more than one job per weight ratio.
package planqueue

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/plancache/atomicio"
	"bootes/internal/prio"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// RunFunc plans a job's matrix m, whose plan-cache key is key. cached
// reports a plan that was looked up rather than computed. An error is
// retried with backoff up to maxAttempts runs; a degraded plan completes the
// job.
type RunFunc func(ctx context.Context, key string, m *sparse.CSR) (res *reorder.Result, cached bool, err error)

// State is a job's position in the lifecycle:
//
//	queued → running → done
//	                 ↘ failed (retry scheduled) → running → …
//	                 ↘ dead   (retries exhausted; parked, never retried hot)
type State string

// The job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateDead    State = "dead"
)

// Terminal reports whether the state is an endpoint of the lifecycle.
func (s State) Terminal() bool { return s == StateDone || s == StateDead }

func stateCode(s State) uint8 {
	switch s {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	case StateDone:
		return 2
	case StateFailed:
		return 3
	case StateDead:
		return 4
	}
	return 0
}

func stateFromCode(c uint8) State {
	switch c {
	case 1:
		return StateRunning
	case 2:
		return StateDone
	case 3:
		return StateFailed
	case 4:
		return StateDead
	}
	return StateQueued
}

// Job is the externally visible image of a queued planning job. Get returns
// copies; mutating one never affects the queue.
type Job struct {
	// ID is the stable handle ("j-%010d"), unique across restarts.
	ID string
	// Seq is the journal sequence number behind ID.
	Seq uint64
	// Tenant is the submitting tenant's identity.
	Tenant string
	// Key is the matrix content hash (the plan cache and dedupe key).
	Key string
	// State is the current lifecycle position.
	State State
	// Attempts counts Run calls so far.
	Attempts int
	// EnqueuedAt is the acknowledgment time (journal fsync).
	EnqueuedAt time.Time
	// Reason carries the last failure (failed/dead) or degradation note.
	Reason string
	// Reordered / K / Degraded / DegradedReason summarize the plan once done.
	Reordered      bool
	K              int
	Degraded       bool
	DegradedReason string
	// Cached is true when Run found the plan already produced, without a
	// pipeline run (the exactly-once replay path).
	Cached bool
}

// job is the internal mutable record.
type job struct {
	Job
	finishTag int64     // WFQ virtual finish time while ready
	notBefore time.Time // retry backoff gate while failed
}

const (
	// maxAttempts bounds Run calls per job before a job whose runs keep
	// failing is parked dead.
	maxAttempts = 3
	// runTimeout is the deadline of one Run call; bootesd's RunFunc degrades
	// a plan still running at it to the identity, completing the job.
	runTimeout = 60 * time.Second
)

// compactEvery triggers journal compaction after this many terminal records,
// and retainTerminal bounds how many finished jobs stay queryable (and
// journaled) after completion. Variables only so a test can shrink them.
var (
	compactEvery   = 256
	retainTerminal = 1024
)

// Config assembles a Queue.
type Config struct {
	// Dir is the queue root: journal.wal plus a spool/ directory of matrix
	// payloads (required).
	Dir string
	// Workers sizes the worker pool (default 2; bootesd passes its admission
	// MaxInFlight so async work can never out-parallelize the sync path).
	Workers int
	// RetryBackoff is the first retry delay (default 100ms); attempt i waits
	// RetryBackoff·2^i plus up to 50% jitter.
	RetryBackoff time.Duration
	// MaxQueued bounds jobs in non-terminal states (default 1024); beyond it
	// Enqueue fails with ErrQueueFull.
	MaxQueued int
	// MaxQueuedPerTenant bounds one tenant's non-terminal jobs (default
	// MaxQueued/4); beyond it Enqueue fails with ErrTenantBacklog.
	MaxQueuedPerTenant int
	// Weights sets per-tenant WFQ weights; absent tenants weigh 1.
	Weights map[string]float64
	// Metrics is the registry the queue's instruments register on; nil uses
	// a private registry.
	Metrics *obs.Registry
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// Seed seeds retry jitter (deterministic tests); 0 uses a fixed seed.
	Seed int64
	// Logf sinks queue diagnostics; nil uses a silent sink.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of queue activity since Open.
type Stats struct {
	// Enqueued counts acknowledged submissions; Deduped counts submissions
	// answered with an already-active job.
	Enqueued, Deduped int64
	// Done / Failed / Dead count lifecycle transitions; CachedDone is the
	// subset of Done whose Run found the plan already produced.
	Done, CachedDone, Failed, Dead int64
	// Recovered counts jobs replayed back to queued at Open (crash recovery);
	// TornTails counts truncated torn journal tails (each at most one
	// unacknowledged record).
	Recovered, TornTails int64
	// Compactions counts journal rewrites.
	Compactions int64
	// Depth / Running / Delayed are instantaneous gauges: ready jobs,
	// executing jobs, and failed jobs waiting out a retry backoff.
	Depth, Running, Delayed int64
	// JournalBytes is the journal file's current size.
	JournalBytes int64
}

// Enqueue failure modes the serving layer maps to 429.
var (
	// ErrQueueFull reports the global MaxQueued bound.
	ErrQueueFull = errors.New("planqueue: queue full")
	// ErrTenantBacklog reports the per-tenant bound.
	ErrTenantBacklog = errors.New("planqueue: tenant backlog limit reached")
	// ErrClosed reports an enqueue against a stopped queue.
	ErrClosed = errors.New("planqueue: queue closed")
)

// wfqScale converts the 1/weight job cost to int64 virtual-time ticks.
const wfqScale = 1 << 20

// tenantState is one tenant's scheduler bookkeeping.
type tenantState struct {
	name       string
	index      int // key into the prio min-heap
	weight     float64
	lastFinish int64  // finish tag of the tenant's most recent job
	fifo       []*job // ready jobs in arrival order
	active     int    // non-terminal jobs (backlog bound)
}

// Queue is the durable async plan queue. Create with Open, start workers with
// Start, stop with Stop (graceful) — Kill exists for crash simulation.
type Queue struct {
	cfg      Config
	spoolDir string
	run      RunFunc // set once by Start, before any worker runs

	mu      sync.Mutex
	cond    *sync.Cond
	j       *journal
	jobs    map[uint64]*job
	byID    map[string]uint64
	active  map[string]uint64 // matrix key → seq of the non-terminal job
	tenants map[string]*tenantState
	byIndex []*tenantState
	ready   *prio.Queue // min-heap over tenant indices; pri = head finish tag
	delayed []*job      // failed jobs awaiting retry, unordered
	order   []uint64    // terminal seqs, oldest first (retention ring)
	vtime   int64
	nextSeq uint64
	stopped bool
	stats   Stats

	termSinceCompact int

	killCtx  context.Context // cancelled by Kill: aborts in-flight pipeline runs
	killRuns context.CancelFunc
	workers  sync.WaitGroup
	started  bool

	jitterMu sync.Mutex
	jitter   *rand.Rand

	reg       *obs.Registry
	jobsTotal *obs.CounterVec
}

// Open loads (or creates) the queue directory, replays the journal, recovers
// interrupted jobs back to queued, sweeps orphaned spool files, and returns a
// queue with no workers running (call Start).
func Open(cfg Config) (*Queue, error) {
	if cfg.Dir == "" {
		return nil, errors.New("planqueue: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 1024
	}
	if cfg.MaxQueuedPerTenant <= 0 {
		cfg.MaxQueuedPerTenant = (cfg.MaxQueued + 3) / 4
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "spool"), 0o755); err != nil {
		return nil, err
	}
	q := &Queue{
		cfg:      cfg,
		spoolDir: filepath.Join(cfg.Dir, "spool"),
		jobs:     make(map[uint64]*job),
		byID:     make(map[string]uint64),
		active:   make(map[string]uint64),
		tenants:  make(map[string]*tenantState),
		ready:    prio.NewMin(0),
		jitter:   rand.New(rand.NewSource(seed)),
	}
	q.cond = sync.NewCond(&q.mu)
	q.killCtx, q.killRuns = context.WithCancel(context.Background())
	q.registerMetrics(cfg.Metrics)

	j, torn, err := openJournal(filepath.Join(cfg.Dir, "journal.wal"), q.replay)
	if err != nil {
		return nil, err
	}
	q.j = j
	if torn {
		q.stats.TornTails++
	}
	q.recover()
	return q, nil
}

func (q *Queue) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	q.reg = reg
	q.jobsTotal = reg.CounterVec("bootes_jobs_total",
		"Async plan job lifecycle transitions, by resulting state.", "state")
	reg.GaugeFunc("bootes_queue_depth", "Async jobs ready or retrying (not yet running).", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.readyDepthLocked() + int64(len(q.delayed))
	})
	reg.GaugeFunc("bootes_queue_running", "Async jobs currently executing.", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.stats.Running
	})
	reg.GaugeFunc("bootes_queue_oldest_age_seconds", "Age of the oldest non-terminal async job.", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		oldest := int64(0)
		now := q.cfg.Now()
		for _, jb := range q.jobs {
			if jb.State.Terminal() {
				continue
			}
			if age := int64(now.Sub(jb.EnqueuedAt).Seconds()); age > oldest {
				oldest = age
			}
		}
		return oldest
	})
	reg.GaugeFunc("bootes_queue_journal_bytes", "Current size of the async queue journal.", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.j.size
	})
	reg.CounterFunc("bootes_queue_compactions_total", "Journal compaction rewrites.", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.stats.Compactions
	})
	reg.CounterFunc("bootes_queue_recovered_total", "Jobs replayed back to queued after a crash.", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.stats.Recovered
	})
}

// replay folds one journal record into the in-memory table (Open only; no
// locking needed — the queue is not yet shared).
func (q *Queue) replay(r *rec) {
	if r.seq > q.nextSeq {
		q.nextSeq = r.seq
	}
	jb, ok := q.jobs[r.seq]
	if !ok {
		jb = &job{}
		q.jobs[r.seq] = jb
	}
	jb.Job = Job{
		ID:         jobID(r.seq),
		Seq:        r.seq,
		Tenant:     r.tenant,
		Key:        r.key,
		State:      stateFromCode(r.state),
		Attempts:   int(r.attempts),
		EnqueuedAt: time.Unix(0, r.enqueuedN),
		Reason:     r.reason,
		Reordered:  r.flags&flagReordered != 0,
		Degraded:   r.flags&flagDegraded != 0,
		Cached:     r.flags&flagCached != 0,
		K:          int(r.k),
	}
	if jb.Degraded {
		jb.DegradedReason = r.reason
	}
	// Later records overwrite earlier ones for the same seq, but a job that
	// carried tenant/key once must not lose them to a sparse terminal record.
	if jb.Tenant == "" && r.tenant != "" {
		jb.Tenant = r.tenant
	}
	q.byID[jb.ID] = r.seq
}

// recover normalizes the replayed table into a runnable state: interrupted
// (running) and mid-backoff (failed) jobs return to queued, live jobs enter
// the scheduler, terminal jobs enter the retention ring, and spool files
// nobody references are removed.
func (q *Queue) recover() {
	seqs := make([]uint64, 0, len(q.jobs))
	for seq := range q.jobs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	referenced := make(map[string]bool)
	for _, seq := range seqs {
		jb := q.jobs[seq]
		switch jb.State {
		case StateRunning, StateFailed:
			jb.State = StateQueued
			q.stats.Recovered++
			fallthrough
		case StateQueued:
			referenced[jb.Key] = true
			q.active[jb.Key] = seq
			q.tenant(jb.Tenant).active++
			q.enqueueReady(jb)
		case StateDead:
			// Parked jobs keep their payload for postmortem resubmission.
			referenced[jb.Key] = true
			q.order = append(q.order, seq)
		case StateDone:
			q.order = append(q.order, seq)
		}
	}
	names, err := os.ReadDir(q.spoolDir)
	if err != nil {
		q.cfg.Logf("planqueue: spool sweep: %v", err)
		return
	}
	for _, de := range names {
		name := de.Name()
		if strings.Contains(name, atomicio.TempSuffix) {
			// Interrupted spool write: never referenced by an acked job.
			_ = os.Remove(filepath.Join(q.spoolDir, name))
			continue
		}
		key := strings.TrimSuffix(name, ".bcsr")
		if !referenced[key] {
			_ = os.Remove(filepath.Join(q.spoolDir, name))
		}
	}
}

func jobID(seq uint64) string { return fmt.Sprintf("j-%010d", seq) }

// Start launches the worker pool, which plans every job with run. Idempotent:
// later calls keep the first run.
func (q *Queue) Start(run RunFunc) {
	q.mu.Lock()
	if q.started || q.stopped {
		q.mu.Unlock()
		return
	}
	q.started = true
	q.run = run
	q.mu.Unlock()
	for i := 0; i < q.cfg.Workers; i++ {
		q.workers.Add(1)
		go q.worker()
	}
}

// Enqueue submits a matrix for asynchronous planning under the given tenant.
// The returned job is acknowledged durable: its enqueue record has been
// fsynced. dup is true when a job for the same matrix content is already
// active, in which case the existing job is returned and nothing is written.
func (q *Queue) Enqueue(tenant string, m *sparse.CSR) (Job, bool, error) {
	key := plancache.KeyCSR(m)

	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return Job{}, false, ErrClosed
	}
	if seq, ok := q.active[key]; ok {
		jb := q.jobs[seq]
		q.stats.Deduped++
		q.jobsTotal.With("deduped").Inc()
		out := jb.Job
		q.mu.Unlock()
		return out, true, nil
	}
	live := int64(0)
	for _, jb := range q.jobs {
		if !jb.State.Terminal() {
			live++
		}
	}
	if live >= int64(q.cfg.MaxQueued) {
		q.mu.Unlock()
		return Job{}, false, ErrQueueFull
	}
	if t := q.tenants[tenant]; t != nil && t.active >= q.cfg.MaxQueuedPerTenant {
		q.mu.Unlock()
		return Job{}, false, fmt.Errorf("%w (tenant %q)", ErrTenantBacklog, tenant)
	}
	q.mu.Unlock()

	// Spool the payload outside the lock: content-addressed, atomic, and
	// idempotent (a second job for the same matrix reuses the file).
	spool := filepath.Join(q.spoolDir, key+".bcsr")
	if _, err := os.Stat(spool); os.IsNotExist(err) {
		werr := atomicio.WriteFile(spool, func(w io.Writer) error {
			return sparse.WriteBinary(w, m)
		})
		if werr != nil {
			return Job{}, false, fmt.Errorf("planqueue: spooling matrix: %w", werr)
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return Job{}, false, ErrClosed
	}
	if seq, ok := q.active[key]; ok { // raced with an identical submission
		q.stats.Deduped++
		q.jobsTotal.With("deduped").Inc()
		return q.jobs[seq].Job, true, nil
	}
	q.nextSeq++
	jb := &job{Job: Job{
		ID:         jobID(q.nextSeq),
		Seq:        q.nextSeq,
		Tenant:     tenant,
		Key:        key,
		State:      StateQueued,
		EnqueuedAt: q.cfg.Now(),
	}}
	// The ack: fsync the enqueue record. Failure rolls the sequence back and
	// registers nothing — the client got an error, so nothing was promised.
	if err := q.j.append(q.recFor(jb, recEnqueue)); err != nil {
		q.nextSeq--
		q.wedgeOnCrash(err)
		return Job{}, false, fmt.Errorf("planqueue: journaling job: %w", err)
	}
	q.jobs[jb.Seq] = jb
	q.byID[jb.ID] = jb.Seq
	q.active[key] = jb.Seq
	q.stats.Enqueued++
	q.jobsTotal.With("queued").Inc()
	q.tenant(jb.Tenant).active++
	q.enqueueReady(jb)
	q.cond.Signal()
	return jb.Job, false, nil
}

// Get returns a copy of the job with the given ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	seq, ok := q.byID[id]
	if !ok {
		return Job{}, false
	}
	return q.jobs[seq].Job, true
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Depth = q.readyDepthLocked()
	s.Delayed = int64(len(q.delayed))
	s.JournalBytes = q.j.size
	return s
}

func (q *Queue) readyDepthLocked() int64 {
	n := int64(0)
	for _, t := range q.tenants {
		n += int64(len(t.fifo))
	}
	return n
}

// tenant returns (creating on first use) the scheduler state for name.
func (q *Queue) tenant(name string) *tenantState {
	t, ok := q.tenants[name]
	if !ok {
		w := q.cfg.Weights[name]
		if w <= 0 {
			w = 1
		}
		t = &tenantState{name: name, index: len(q.byIndex), weight: w}
		q.tenants[name] = t
		q.byIndex = append(q.byIndex, t)
		q.ready.Grow(len(q.byIndex))
	}
	return t
}

// enqueueReady stamps the job's WFQ finish tag and inserts it into its
// tenant's FIFO (locked). Retries re-enter here too, so counting the job in
// the tenant's backlog is the caller's business.
func (q *Queue) enqueueReady(jb *job) {
	t := q.tenant(jb.Tenant)
	jb.finishTag = max(q.vtime, t.lastFinish) + int64(wfqScale/t.weight)
	t.lastFinish = jb.finishTag
	t.fifo = append(t.fifo, jb)
	if len(t.fifo) == 1 {
		q.ready.Insert(t.index, jb.finishTag)
	}
}

// popReady removes and returns the WFQ-next job, or nil (locked).
func (q *Queue) popReady() *job {
	idx, ok := q.ready.Peek()
	if !ok {
		return nil
	}
	t := q.byIndex[idx]
	jb := t.fifo[0]
	t.fifo = t.fifo[1:]
	if len(t.fifo) == 0 {
		q.ready.Remove(idx)
	} else {
		q.ready.Set(idx, t.fifo[0].finishTag)
	}
	if jb.finishTag > q.vtime {
		q.vtime = jb.finishTag
	}
	return jb
}

// promoteDue moves failed jobs whose backoff has elapsed back into the ready
// structure (locked).
func (q *Queue) promoteDue() {
	if len(q.delayed) == 0 {
		return
	}
	now := q.cfg.Now()
	kept := q.delayed[:0]
	for _, jb := range q.delayed {
		if jb.notBefore.After(now) {
			kept = append(kept, jb)
			continue
		}
		jb.State = StateQueued
		q.enqueueReady(jb) // the tenant's backlog still counts the job
	}
	q.delayed = kept
}

// dequeue blocks until a job is ready (returning it in the running state) or
// the queue stops (returning nil).
func (q *Queue) dequeue() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.stopped {
			return nil
		}
		q.promoteDue()
		if jb := q.popReady(); jb != nil {
			jb.State = StateRunning
			q.stats.Running++
			return jb
		}
		q.cond.Wait()
	}
}

func (q *Queue) worker() {
	defer q.workers.Done()
	for {
		jb := q.dequeue()
		if jb == nil {
			return
		}
		q.execute(jb)
	}
}

// execute runs one attempt of a job — load the spooled matrix, Run it — and
// then the completion protocol (journal → spool delete).
func (q *Queue) execute(jb *job) {
	m, err := q.loadSpool(jb.Key)
	if err != nil {
		// The payload is gone (crash between ack and spool durability cannot
		// happen — spool precedes the ack, and the spool outlives the done
		// record — so this is disk damage). Nothing to retry against: park it.
		q.mu.Lock()
		q.finishLocked(jb, StateDead, fmt.Sprintf("matrix payload unavailable: %v", err))
		q.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(q.killCtx, runTimeout)
	res, cached, err := q.run(ctx, jb.Key, m)
	cancel()
	if q.killCtx.Err() != nil {
		// Killed mid-run (crash simulation / hard stop): leave the job as
		// the journal knows it; replay will recover it to queued.
		q.mu.Lock()
		q.stats.Running--
		q.mu.Unlock()
		return
	}
	if err != nil {
		q.retryOrDead(jb, err.Error())
		return
	}
	q.complete(jb, res, cached)
}

// complete finishes a job with the plan its Run returned.
func (q *Queue) complete(jb *job, res *reorder.Result, cached bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb.Attempts++
	jb.Cached = cached
	jb.Reordered = res.Reordered
	jb.K = int(res.Extra["k"])
	jb.Degraded = res.Degraded
	jb.DegradedReason = res.DegradedReason
	if cached {
		q.stats.CachedDone++
	}
	q.finishLocked(jb, StateDone, "")
}

// retryOrDead schedules a bounded retry, or parks the job dead when its
// attempts are exhausted.
func (q *Queue) retryOrDead(jb *job, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb.Attempts++
	jb.Reason = reason
	if jb.Attempts >= maxAttempts {
		q.finishLocked(jb, StateDead, reason)
		return
	}
	jb.State = StateFailed
	q.stats.Running--
	q.stats.Failed++
	q.jobsTotal.With("failed").Inc()
	backoff := q.cfg.RetryBackoff << (jb.Attempts - 1)
	q.jitterMu.Lock()
	backoff += time.Duration(q.jitter.Int63n(int64(backoff)/2 + 1))
	q.jitterMu.Unlock()
	jb.notBefore = q.cfg.Now().Add(backoff)
	q.delayed = append(q.delayed, jb)
	if err := q.j.append(q.recFor(jb, recFailed)); err != nil {
		q.cfg.Logf("planqueue: journaling retry of %s: %v", jb.ID, err)
		q.wedgeOnCrash(err)
	}
	// Wake a worker when the backoff elapses. The timer outliving the queue
	// is harmless: Broadcast on a stopped queue wakes workers that exit.
	time.AfterFunc(backoff, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
}

// finishLocked is the terminal transition: journal the outcome, release the
// dedupe slot, retire the spool payload (durably done only), enforce
// terminal retention, and maybe compact.
func (q *Queue) finishLocked(jb *job, st State, reason string) {
	jb.State = st
	if reason != "" {
		jb.Reason = reason
	}
	q.stats.Running--
	t := q.tenant(jb.Tenant)
	t.active--
	delete(q.active, jb.Key)
	typ := recDone
	if st == StateDead {
		typ = recDead
		q.stats.Dead++
		q.jobsTotal.With("dead").Inc()
	} else {
		q.stats.Done++
		q.jobsTotal.With("done").Inc()
	}
	if err := q.j.append(q.recFor(jb, typ)); err != nil {
		// Durability loss only: the in-memory state stays authoritative for
		// this process. After a crash the job replays to queued, so its
		// payload stays spooled: Run's cache lookup then completes a healthy
		// plan without a pipeline run, and a degraded one (never cached) is
		// planned again.
		q.cfg.Logf("planqueue: journaling completion of %s: %v", jb.ID, err)
		q.wedgeOnCrash(err)
	} else if st == StateDone && !q.spoolShared(jb) {
		_ = os.Remove(filepath.Join(q.spoolDir, jb.Key+".bcsr"))
	}
	q.order = append(q.order, jb.Seq)
	for len(q.order) > retainTerminal {
		old := q.order[0]
		q.order = q.order[1:]
		if oj, ok := q.jobs[old]; ok && oj.State.Terminal() {
			delete(q.byID, oj.ID)
			delete(q.jobs, old)
		}
	}
	q.termSinceCompact++
	if q.termSinceCompact >= compactEvery {
		q.compactLocked()
	}
}

// wedgeOnCrash closes the queue to new work after an injected journal crash
// (locked). An injected crash leaves a torn record in the file, exactly as a
// real crash would; anything appended after it would be unreachable to
// replay, so the only safe continuation is none — the harness is expected to
// Kill and reopen, which truncates the torn tail.
func (q *Queue) wedgeOnCrash(err error) {
	if errors.Is(err, ErrJournalCrash) {
		q.stopped = true
		q.cond.Broadcast()
	}
}

// spoolShared reports whether another non-done job still needs jb's payload
// (same content-addressed matrix; dead jobs keep theirs for postmortem).
func (q *Queue) spoolShared(jb *job) bool {
	for _, other := range q.jobs {
		if other.Seq != jb.Seq && other.Key == jb.Key && other.State != StateDone {
			return true
		}
	}
	return false
}

// compactLocked rewrites the journal as snapshots of every job still worth
// remembering: live jobs (queued/failed/running, persisted as queued) plus
// the retained terminal tail.
func (q *Queue) compactLocked() {
	seqs := make([]uint64, 0, len(q.jobs))
	for seq := range q.jobs {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	recs := make([]*rec, 0, len(seqs))
	for _, seq := range seqs {
		jb := q.jobs[seq]
		r := q.recFor(jb, recSnap)
		if !jb.State.Terminal() {
			// A snapshot must be replayable standalone: in-flight states
			// collapse to queued, exactly as crash recovery would.
			r.state = stateCode(StateQueued)
		}
		recs = append(recs, r)
	}
	if err := q.j.rewrite(recs); err != nil {
		q.cfg.Logf("planqueue: compaction failed (journal keeps growing): %v", err)
		return
	}
	q.stats.Compactions++
	q.termSinceCompact = 0
}

func (q *Queue) recFor(jb *job, typ uint8) *rec {
	var flags uint8
	if jb.Reordered {
		flags |= flagReordered
	}
	if jb.Degraded {
		flags |= flagDegraded
	}
	if jb.Cached {
		flags |= flagCached
	}
	reason := jb.Reason
	if jb.Degraded && jb.DegradedReason != "" {
		reason = jb.DegradedReason
	}
	return &rec{
		typ:       typ,
		seq:       jb.Seq,
		state:     stateCode(jb.State),
		flags:     flags,
		k:         uint16(jb.K),
		attempts:  uint16(jb.Attempts),
		enqueuedN: jb.EnqueuedAt.UnixNano(),
		tenant:    jb.Tenant,
		key:       jb.Key,
		reason:    reason,
	}
}

func (q *Queue) loadSpool(key string) (*sparse.CSR, error) {
	f, err := os.Open(filepath.Join(q.spoolDir, key+".bcsr"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadBinary(f)
}

// WaitIdle blocks until no job is ready, delayed, or running, or ctx expires.
// Chaos and tests use it to drain deterministically.
func (q *Queue) WaitIdle(ctx context.Context) error {
	for {
		q.mu.Lock()
		idle := q.readyDepthLocked() == 0 && len(q.delayed) == 0 && q.stats.Running == 0
		q.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop is the graceful drain: no new submissions, workers finish their
// current job and exit (queued jobs stay journaled — checkpointed, not
// discarded), the journal is compacted so restart replays a minimal file,
// and the file is closed. Safe to call twice.
func (q *Queue) Stop(ctx context.Context) error {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return nil
	}
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("planqueue: drain deadline exceeded: %w", ctx.Err())
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.compactLocked()
	return q.j.close()
}

// Kill simulates a crash: in-flight pipeline runs are cancelled, workers
// exit without finishing, nothing is checkpointed, and the journal file is
// closed as-is. Only the chaos harness and tests should call this; production
// shutdown is Stop.
func (q *Queue) Kill() {
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.killRuns()
	q.workers.Wait()
	// Double-close (after Stop, or after a self-wedge) is harmless.
	_ = q.j.close()
}

// Registry exposes the queue's metrics registry (the configured one, or the
// private default).
func (q *Queue) Registry() *obs.Registry { return q.reg }
