package antientropy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planverify"
	"bootes/internal/ring"
)

// Config assembles a Healer.
type Config struct {
	// Cache is the local plan cache the healer repairs (required). Hints are
	// spooled under <cache dir>/hints: plancache.Open skips subdirectories,
	// so the spool nests safely.
	Cache *plancache.Cache
	// Ring is the fleet's consistent-hash ring (required), fixed per
	// process; repair recomputes ownership against it every round.
	Ring *ring.Ring
	// Self is this node's ring name / advertised URL (required).
	Self string
	// Replicas is the replica-set size per key (default 2).
	Replicas int
	// PeerUp reports the router's health view of a peer; nil assumes every
	// peer is up. A down peer is skipped by repair and its writes are parked
	// as hints.
	PeerUp func(peer string) bool
	// RepairInterval is the digest-exchange period (default 30s).
	RepairInterval time.Duration
	// ScrubInterval is the per-entry scrub pacing: one locally cached entry
	// is re-read from disk per tick (default 5s), so a full pass over a
	// cache of N entries takes N·ScrubInterval — a deliberate trickle that
	// never competes with serving for disk bandwidth.
	ScrubInterval time.Duration
	// Metrics is the registry the bootes_antientropy_* / bootes_scrub_*
	// families register on; nil uses a private registry.
	Metrics *obs.Registry
	// Logf sinks healing diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// fetchTimeout bounds one digest fetch, entry pull, or entry push.
const fetchTimeout = 2 * time.Second

// Stats is the healer's counter snapshot, embedded in /statsz.
type Stats struct {
	// RepairRounds counts digest-exchange rounds; RepairedMissing /
	// RepairedDivergent count entries pulled because a peer had them and we
	// did not / because the replicas disagreed byte-wise.
	RepairRounds, RepairedMissing, RepairedDivergent int64
	// Dropped counts entries deleted because the ring no longer assigns
	// them here (after handing them to their owners).
	Dropped int64
	// Pushes / PushFailures count replication and handoff PUTs.
	Pushes, PushFailures int64
	// FetchFailures counts failed digest or entry pulls.
	FetchFailures int64
	// HintsWritten / HintsDelivered / HintsDropped / HintsPending track the
	// hinted-handoff spool.
	HintsWritten, HintsDelivered, HintsDropped, HintsPending int64
	// WarmupFetched counts entries streamed from replicas during start-up
	// warm-up, before readiness flipped.
	WarmupFetched int64
	// ScrubPasses / ScrubErrors / ScrubRepaired count scrubbed entries,
	// entries that failed the re-read, and failed entries restored from a
	// peer.
	ScrubPasses, ScrubErrors, ScrubRepaired int64
}

// Healer runs the anti-entropy loops for one node. Build with New, start the
// background loops with Start, stop with Stop (joins all goroutines).
type Healer struct {
	cfg    Config
	client *http.Client
	hints  *hintStore
	logf   func(string, ...any)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	peerUpCh chan string

	mu        sync.Mutex
	scrubNext string // cursor: first key after the last scrubbed one

	repairRounds                       *obs.Counter
	repaired                           *obs.CounterVec // kind=missing|divergent
	dropped                            *obs.Counter
	pushes, pushFails                  *obs.Counter
	fetchFails                         *obs.Counter
	hintsWritten, hintsDelivered       *obs.Counter
	hintsDropped                       *obs.Counter
	warmupFetched                      *obs.Counter
	scrubPasses, scrubErrs, scrubFixed *obs.Counter
}

// New validates cfg and builds the healer. No goroutines start until Start.
func New(cfg Config) (*Healer, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("antientropy: Config.Cache is required")
	}
	if cfg.Ring == nil {
		return nil, fmt.Errorf("antientropy: Config.Ring is required")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("antientropy: Config.Self is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.RepairInterval <= 0 {
		cfg.RepairInterval = 30 * time.Second
	}
	if cfg.ScrubInterval <= 0 {
		cfg.ScrubInterval = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	h := &Healer{
		cfg:      cfg,
		client:   &http.Client{Timeout: 30 * time.Second},
		hints:    &hintStore{dir: filepath.Join(cfg.Cache.Dir(), "hints")},
		logf:     cfg.Logf,
		stop:     make(chan struct{}),
		peerUpCh: make(chan string, 32),
	}
	h.registerMetrics(cfg.Metrics)
	return h, nil
}

func (h *Healer) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h.repairRounds = reg.Counter("bootes_antientropy_repair_rounds_total", "Digest-exchange repair rounds completed.")
	h.repaired = reg.CounterVec("bootes_antientropy_repaired_total", "Entries repaired from a peer, by cause.", "kind")
	h.dropped = reg.Counter("bootes_antientropy_dropped_total", "Entries deleted after the ring reassigned them elsewhere.")
	h.pushes = reg.Counter("bootes_antientropy_pushes_total", "Entry replication/handoff pushes to peers.")
	h.pushFails = reg.Counter("bootes_antientropy_push_failures_total", "Entry pushes that failed (transport error or non-2xx).")
	h.fetchFails = reg.Counter("bootes_antientropy_fetch_failures_total", "Digest or entry fetches that failed.")
	h.hintsWritten = reg.Counter("bootes_antientropy_hints_written_total", "Writes parked as durable hints for a down replica.")
	h.hintsDelivered = reg.Counter("bootes_antientropy_hints_delivered_total", "Parked hints delivered after the replica recovered.")
	h.hintsDropped = reg.Counter("bootes_antientropy_hints_dropped_total", "Hints dropped by the per-peer spool bound.")
	h.warmupFetched = reg.Counter("bootes_antientropy_warmup_fetched_total", "Entries streamed from replicas during start-up warm-up.")
	h.scrubPasses = reg.Counter("bootes_scrub_passes_total", "Cache entries re-read and re-verified by the scrubber.")
	h.scrubErrs = reg.Counter("bootes_scrub_errors_total", "Scrubbed entries that failed verification and were quarantined.")
	h.scrubFixed = reg.Counter("bootes_scrub_repaired_total", "Quarantined entries restored from a peer replica.")
	reg.GaugeFunc("bootes_antientropy_hints_pending", "Hints currently parked for down replicas.", h.hints.pending)
}

// Stats snapshots the healer's counters.
func (h *Healer) Stats() Stats {
	return Stats{
		RepairRounds:      h.repairRounds.Value(),
		RepairedMissing:   h.repaired.With("missing").Value(),
		RepairedDivergent: h.repaired.With("divergent").Value(),
		Dropped:           h.dropped.Value(),
		Pushes:            h.pushes.Value(),
		PushFailures:      h.pushFails.Value(),
		FetchFailures:     h.fetchFails.Value(),
		HintsWritten:      h.hintsWritten.Value(),
		HintsDelivered:    h.hintsDelivered.Value(),
		HintsDropped:      h.hintsDropped.Value(),
		HintsPending:      h.hints.pending(),
		WarmupFetched:     h.warmupFetched.Value(),
		ScrubPasses:       h.scrubPasses.Value(),
		ScrubErrors:       h.scrubErrs.Value(),
		ScrubRepaired:     h.scrubFixed.Value(),
	}
}

// owns reports whether the ring assigns key's replica set to this node.
func (h *Healer) owns(key string) bool {
	return h.cfg.Ring.OwnedBy(key, h.cfg.Self, h.cfg.Replicas)
}

// peerUp consults the router's health view; with no view every peer is
// assumed reachable and failures surface as push/fetch errors.
func (h *Healer) peerUp(peer string) bool {
	if h.cfg.PeerUp == nil {
		return true
	}
	return h.cfg.PeerUp(peer)
}

// Start launches the background loops: periodic digest repair, the scrub
// trickle, and hint delivery on peer recovery. One goroutine runs all three
// — healing work is strictly sequential per node, so a slow repair round
// simply delays the next scrub tick instead of piling up.
func (h *Healer) Start() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		repair := time.NewTicker(h.cfg.RepairInterval)
		defer repair.Stop()
		scrub := time.NewTicker(h.cfg.ScrubInterval)
		defer scrub.Stop()
		for {
			select {
			case <-h.stop:
				return
			case peer := <-h.peerUpCh:
				ctx, cancel := h.opCtx()
				h.deliverHints(ctx, peer)
				cancel()
			case <-repair.C:
				h.RepairOnce(context.Background())
			case <-scrub.C:
				h.scrubOnce()
			}
		}
	}()
}

// Stop halts the loops, joins the goroutine, and closes the client's idle
// connections: a connection dialed for a push but never used would hold a
// peer's graceful shutdown for seconds. Idempotent.
func (h *Healer) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.wg.Wait()
	h.client.CloseIdleConnections()
}

// NotifyPeerUp tells the healer a peer transitioned down→up (the router's
// OnPeerUp hook): parked hints for it are delivered on the healing
// goroutine. Non-blocking — if the queue is full the periodic repair round
// delivers instead.
func (h *Healer) NotifyPeerUp(peer string) {
	select {
	case h.peerUpCh <- peer:
	default:
	}
}

// opCtx bounds one network operation.
func (h *Healer) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), fetchTimeout)
}

// Replicate synchronously pushes key's freshly written entry to the other
// members of its replica set, parking a durable hint for any replica that is
// down or fails the push. planserve calls it after the pipeline's cache
// write, on the request goroutine — replication cost is bounded by
// fetchTimeout per replica and plans are minutes of compute, so the
// milliseconds of synchronous push are noise against losing the plan with
// the node.
func (h *Healer) Replicate(key string) {
	data, ok := h.encodeLocal(key)
	if !ok {
		return
	}
	for _, rep := range h.cfg.Ring.Replicas(key, h.cfg.Replicas) {
		if rep == h.cfg.Self {
			continue
		}
		if !h.peerUp(rep) {
			h.parkHint(rep, key, data)
			continue
		}
		ctx, cancel := h.opCtx()
		err := h.pushEntry(ctx, rep, key, data)
		cancel()
		if err != nil {
			h.logf("antientropy: replicate %.12s to %s failed, parking hint: %v", key, rep, err)
			h.parkHint(rep, key, data)
		}
	}
}

// encodeLocal returns key's entry as its canonical encoded bytes.
func (h *Healer) encodeLocal(key string) ([]byte, bool) {
	e, ok := h.cfg.Cache.Peek(key)
	if !ok {
		return nil, false
	}
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		return nil, false
	}
	return data, true
}

// parkHint spools one write for a down replica.
func (h *Healer) parkHint(peer, key string, data []byte) {
	stored, err := h.hints.put(peer, key, data)
	switch {
	case err != nil:
		h.logf("antientropy: parking hint %.12s for %s failed: %v", key, peer, err)
		h.hintsDropped.Inc()
	case !stored:
		h.hintsDropped.Inc()
	default:
		h.hintsWritten.Inc()
	}
}

// deliverHints replays the parked hints for one recovered peer, in key
// order, stopping at the first failure (the peer flapped; retry on the next
// recovery or repair round).
func (h *Healer) deliverHints(ctx context.Context, peer string) {
	keys, err := h.hints.keys(peer)
	if err != nil || len(keys) == 0 {
		return
	}
	for _, key := range keys {
		data, err := h.hints.load(peer, key)
		if err != nil {
			continue // corrupt hint, already removed
		}
		if err := h.pushEntry(ctx, peer, key, data); err != nil {
			h.logf("antientropy: hint delivery %.12s to %s failed: %v", key, peer, err)
			return
		}
		h.hints.remove(peer, key)
		h.hintsDelivered.Inc()
	}
}

// RepairOnce runs one digest-exchange round against every up peer: deliver
// any parked hints, pull entries the peer holds for keys this node owns but
// lacks, resolve divergent copies toward the canonical bytes, and finally
// hand off + drop the entries the digest diff found the ring no longer
// assigns here.
func (h *Healer) RepairOnce(ctx context.Context) {
	h.repairRounds.Inc()
	var notOwned []string
	for _, peer := range h.cfg.Ring.Nodes() {
		if peer == h.cfg.Self || !h.peerUp(peer) {
			continue
		}
		h.deliverHints(ctx, peer)
		dg, err := h.fetchDigest(ctx, peer)
		if err != nil {
			h.fetchFails.Inc()
			continue
		}
		d := ComputeDiff(h.cfg.Cache, dg, h.owns)
		notOwned = d.NotOwned
		for _, key := range d.Missing {
			if h.pullEntry(ctx, peer, key) {
				h.repaired.With("missing").Inc()
			}
		}
		for _, key := range d.Divergent {
			h.resolveDivergent(ctx, peer, key)
		}
		if ctx.Err() != nil {
			return
		}
	}
	h.dropNotOwned(ctx, notOwned)
}

// pullEntry fetches key from peer through the verified fill path and stores
// it locally. Reports whether the local cache changed.
func (h *Healer) pullEntry(ctx context.Context, peer, key string) bool {
	e, err := h.fetchEntry(ctx, peer, key)
	if err != nil {
		h.fetchFails.Inc()
		return false
	}
	if err := h.cfg.Cache.Put(e); err != nil {
		h.logf("antientropy: storing pulled entry %.12s from %s: %v", key, peer, err)
		return false
	}
	return true
}

// resolveDivergent converges one key two replicas hold with different
// bytes: fetch the peer's copy and adopt it iff it is canonical
// (plancache.Cache.PutCanonical). The peer's own repair round applies the
// same rule to the same two copies, so the replica set converges no matter
// who repairs first.
func (h *Healer) resolveDivergent(ctx context.Context, peer, key string) {
	e, err := h.fetchEntry(ctx, peer, key)
	if err != nil {
		h.fetchFails.Inc()
		return
	}
	adopted, err := h.cfg.Cache.PutCanonical(e)
	if err != nil {
		h.logf("antientropy: adopting canonical entry %.12s from %s: %v", key, peer, err)
		return
	}
	if adopted {
		h.repaired.With("divergent").Inc()
	}
}

// dropNotOwned hands the entries a digest diff found the ring no longer
// assigns here (Diff.NotOwned) to their current replicas, then deletes them
// locally. An entry is only dropped after at least one replica acknowledged
// holding it — never destroy the last copy.
func (h *Healer) dropNotOwned(ctx context.Context, keys []string) {
	for _, key := range keys {
		data, ok := h.encodeLocal(key)
		if !ok {
			continue
		}
		handed := false
		for _, rep := range h.cfg.Ring.Replicas(key, h.cfg.Replicas) {
			if rep == h.cfg.Self || !h.peerUp(rep) {
				continue
			}
			if err := h.pushEntry(ctx, rep, key, data); err == nil {
				handed = true
			}
		}
		if !handed {
			continue // keep the entry until an owner takes it
		}
		if err := h.cfg.Cache.Delete(key); err != nil {
			h.logf("antientropy: dropping unowned entry %.12s: %v", key, err)
			continue
		}
		h.dropped.Inc()
	}
}

// scrubOnce re-reads the next locally cached entry from disk. A verification
// failure quarantines the entry (inside Cache.Scrub) and immediately
// attempts repair from the key's other replicas.
func (h *Healer) scrubOnce() {
	keys := h.cfg.Cache.Keys()
	if len(keys) == 0 {
		return
	}
	h.mu.Lock()
	key := keys[0]
	for _, k := range keys {
		if k >= h.scrubNext {
			key = k
			break
		}
	}
	h.scrubNext = key + "\x00" // strictly after key next tick, wrapping at the end
	h.mu.Unlock()

	h.scrubPasses.Inc()
	if err := h.cfg.Cache.Scrub(key); err == nil {
		return
	} else {
		h.logf("antientropy: scrub quarantined %.12s, repairing from peers: %v", key, err)
	}
	h.scrubErrs.Inc()
	ctx, cancel := h.opCtx()
	defer cancel()
	for _, rep := range h.cfg.Ring.Replicas(key, h.cfg.Replicas) {
		if rep == h.cfg.Self || !h.peerUp(rep) {
			continue
		}
		if h.pullEntry(ctx, rep, key) {
			h.scrubFixed.Inc()
			return
		}
	}
}

// Warmup streams this node's owned keys from its current replicas: fetch
// each up peer's digest, pull every owned key the local cache lacks. Called
// by bootesd before flipping readiness, under the warm-up deadline — on
// ctx expiry it returns what it has; anti-entropy finishes the rest in the
// background. Returns the number of entries fetched.
func (h *Healer) Warmup(ctx context.Context) int {
	fetched := 0
	for _, peer := range h.cfg.Ring.Nodes() {
		if peer == h.cfg.Self || !h.peerUp(peer) {
			continue
		}
		dg, err := h.fetchDigest(ctx, peer)
		if err != nil {
			if ctx.Err() != nil {
				return fetched
			}
			h.fetchFails.Inc()
			continue
		}
		d := ComputeDiff(h.cfg.Cache, dg, h.owns)
		for _, key := range d.Missing {
			if ctx.Err() != nil {
				return fetched
			}
			if h.pullEntry(ctx, peer, key) {
				h.warmupFetched.Inc()
				fetched++
			}
		}
	}
	return fetched
}

// DrainPush pushes this node's entries to the other members of each key's
// replica set before the listener closes, so a graceful drain never takes
// the only copy of a plan with it. Peers that already hold a key (per their
// digest) are skipped.
func (h *Healer) DrainPush(ctx context.Context) {
	has := make(map[string]map[string]bool) // peer → key set, from digests
	for _, key := range h.cfg.Cache.Keys() {
		if ctx.Err() != nil {
			return
		}
		data, ok := h.encodeLocal(key)
		if !ok {
			continue
		}
		for _, rep := range h.cfg.Ring.Replicas(key, h.cfg.Replicas) {
			if rep == h.cfg.Self || !h.peerUp(rep) {
				continue
			}
			if _, polled := has[rep]; !polled {
				keys := map[string]bool{}
				if dg, err := h.fetchDigest(ctx, rep); err == nil {
					for _, de := range dg.Entries {
						keys[de.Key] = true
					}
				}
				has[rep] = keys
			}
			if has[rep][key] {
				continue
			}
			if err := h.pushEntry(ctx, rep, key, data); err == nil {
				has[rep][key] = true
			}
		}
	}
}

// HintsPending reports the parked-hint backlog (tests and the chaos
// harness's drained-spool invariant).
func (h *Healer) HintsPending() int64 { return h.hints.pending() }

// fetchDigest GETs one peer's cache digest.
func (h *Healer) fetchDigest(ctx context.Context, peer string) (Digest, error) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/digest", nil)
	if err != nil {
		return Digest{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return Digest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return Digest{}, fmt.Errorf("antientropy: digest from %s: status %d", peer, resp.StatusCode)
	}
	var d Digest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&d); err != nil {
		return Digest{}, fmt.Errorf("antientropy: digest from %s: %w", peer, err)
	}
	return d, nil
}

// MaxEntryBytes bounds one encoded cache entry on the wire: peer fills,
// anti-entropy pulls and the PUT /v1/cache/{key} ingest all stop reading
// there.
const MaxEntryBytes = 64 << 20

// ErrNotCached is FetchEntry's error for a 404: the peer answered, but does
// not hold the key.
var ErrNotCached = errors.New("not cached")

// FetchEntry GETs key from peer's cache (GET /v1/cache/{key}), reads at most
// MaxEntryBytes, decodes the entry (CRC and bijection checks) and checks
// that it is filed under key. A 404 wraps ErrNotCached. The caller bounds
// ctx.
func FetchEntry(ctx context.Context, client *http.Client, peer, key string) (*plancache.Entry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("entry %.12s from %s: %w", key, peer, ErrNotCached)
		}
		return nil, fmt.Errorf("entry %.12s from %s: status %d", key, peer, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxEntryBytes))
	if err != nil {
		return nil, fmt.Errorf("entry %.12s from %s: %w", key, peer, err)
	}
	e, err := plancache.DecodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("entry %.12s from %s: %w", key, peer, err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("entry %.12s from %s holds key %.12s", key, peer, e.Key)
	}
	return e, nil
}

// fetchEntry pulls one entry through FetchEntry and holds it to the bar the
// fleet's peer-fill path applies: plan-field invariants, and no degraded
// entries — they must never replicate. A 404 is a failed fetch here.
func (h *Healer) fetchEntry(ctx context.Context, peer, key string) (*plancache.Entry, error) {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	e, err := FetchEntry(ctx, h.client, peer, key)
	if err != nil {
		return nil, err
	}
	if vs := planverify.CheckEntryFields(len(e.Perm), e.Perm, e.K, e.Reordered, e.Degraded, e.DegradedReason); len(vs) > 0 {
		return nil, fmt.Errorf("antientropy: entry %.12s from %s failed verification: %v", key, peer, vs)
	}
	if e.Degraded {
		return nil, fmt.Errorf("antientropy: entry %.12s from %s is degraded", key, peer)
	}
	return e, nil
}

// pushEntry PUTs one encoded entry to a peer's cache. The receiver verifies
// it and stores it through the same PutCanonical rule resolveDivergent uses,
// so pushing is always safe: it can only add a missing entry or lose to a
// canonical one.
func (h *Healer) pushEntry(ctx context.Context, peer, key string, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/v1/cache/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := h.client.Do(req)
	if err != nil {
		h.pushFails.Inc()
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 {
		h.pushFails.Inc()
		return fmt.Errorf("antientropy: push %.12s to %s: status %d", key, peer, resp.StatusCode)
	}
	h.pushes.Inc()
	return nil
}
