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
	"sync"
	"time"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/planverify"
	"bootes/internal/ring"
)

// Config assembles a Healer.
type Config struct {
	// Cache is the local plan cache the healer repairs (required).
	Cache *plancache.Cache
	// Ring is the fleet's consistent-hash ring (required), fixed per
	// process; repair recomputes ownership against it every round.
	Ring *ring.Ring
	// Self is this node's ring name / advertised URL (required).
	Self string
	// Replicas is the replica-set size per key (default 2).
	Replicas int
	// PeerUp reports the router's health view of a peer; nil assumes every
	// peer is up. Replication, repair, warm-up, drain and scrub all skip a
	// down peer; the writes it missed reach it by its own pulls.
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
	// FetchFailures counts failed digest or entry pulls. A warm-up digest
	// fetch that fails is not counted (see Warmup).
	FetchFailures int64
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
	logf   func(string, ...any)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu        sync.Mutex
	scrubNext string // cursor: first key after the last scrubbed one

	repairRounds                       *obs.Counter
	repaired                           *obs.CounterVec // kind=missing|divergent
	dropped                            *obs.Counter
	pushes, pushFails                  *obs.Counter
	fetchFails                         *obs.Counter
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
		cfg:    cfg,
		client: &http.Client{Timeout: 30 * time.Second},
		logf:   cfg.Logf,
		stop:   make(chan struct{}),
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
	h.fetchFails = reg.Counter("bootes_antientropy_fetch_failures_total", "Digest or entry fetches that failed, except warm-up digest fetches.")
	h.warmupFetched = reg.Counter("bootes_antientropy_warmup_fetched_total", "Entries streamed from replicas during start-up warm-up.")
	h.scrubPasses = reg.Counter("bootes_scrub_passes_total", "Cache entries re-read and re-verified by the scrubber.")
	h.scrubErrs = reg.Counter("bootes_scrub_errors_total", "Scrubbed entries that failed verification and were quarantined.")
	h.scrubFixed = reg.Counter("bootes_scrub_repaired_total", "Quarantined entries restored from a peer replica.")
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

// Start launches the background loops: periodic digest repair and the scrub
// trickle. One goroutine runs both — healing work is strictly sequential per
// node, so a slow repair round simply delays the next scrub tick instead of
// piling up.
func (h *Healer) Start() {
	h.logf("self-heal: repair every %s, scrub every %s", h.cfg.RepairInterval, h.cfg.ScrubInterval)
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

// Replicate synchronously pushes key's freshly written entry to the other
// members of its replica set that are up. A replica that is down or fails
// the push is logged and nothing is kept for it: its own next repair round
// pulls the entry, or its warm-up does if it restarts. planserve calls it
// after the pipeline's cache write, on the request goroutine — replication
// cost is bounded by fetchTimeout per replica and plans are minutes of
// compute, so the milliseconds of synchronous push are noise against losing
// the plan with the node.
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
			h.logf("antientropy: replica %s of %.12s is down; it pulls the entry when it repairs", rep, key)
			continue
		}
		if err := h.pushEntry(context.Background(), rep, key, data); err != nil {
			h.logf("antientropy: replicate %.12s to %s failed; it pulls the entry when it repairs: %v", key, rep, err)
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

// RepairOnce runs one digest-exchange round against every up peer: pull
// entries the peer holds for keys this node owns but lacks, resolve
// divergent copies toward the canonical bytes, and finally hand off + drop
// the entries the digest diff found the ring no longer assigns here.
func (h *Healer) RepairOnce(ctx context.Context) {
	h.repairRounds.Inc()
	var notOwned []string
	for _, peer := range h.cfg.Ring.Nodes() {
		if peer == h.cfg.Self || !h.peerUp(peer) {
			continue
		}
		d, _, ok := h.pullMissing(ctx, peer, h.repaired.With("missing"))
		switch {
		case ok:
			notOwned = d.NotOwned
			for _, key := range d.Divergent {
				h.resolveDivergent(ctx, peer, key)
			}
		case ctx.Err() == nil:
			h.fetchFails.Inc()
		}
		if ctx.Err() != nil {
			return
		}
	}
	h.dropNotOwned(ctx, notOwned)
}

// pullMissing is one peer's share of a repair round or of warm-up: fetch
// the peer's digest, diff it against the local cache, and pull every owned
// key the peer holds that this node lacks, until ctx ends. Each stored pull
// counts on pulled. It returns the diff and the number of entries pulled;
// ok is false when the digest could not be fetched, which the caller
// decides whether to count as a fetch failure.
func (h *Healer) pullMissing(ctx context.Context, peer string, pulled *obs.Counter) (d Diff, n int, ok bool) {
	dg, err := h.fetchDigest(ctx, peer)
	if err != nil {
		return Diff{}, 0, false
	}
	d = ComputeDiff(h.cfg.Cache, dg, h.owns)
	for _, key := range d.Missing {
		if ctx.Err() != nil {
			break
		}
		if h.pullEntry(ctx, peer, key) {
			pulled.Inc()
			n++
		}
	}
	return d, n, true
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
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
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

// Warmup streams this node's owned keys from its current replicas: the
// missing-key pull of a repair round, against each up peer, and nothing
// else. Called by bootesd before flipping readiness, under the warm-up
// deadline — on ctx expiry it returns what it has; anti-entropy finishes the
// rest in the background. Returns the number of entries fetched.
//
// Warm-up is best-effort: a peer whose digest cannot be fetched is skipped
// without counting a fetch failure, because when a fleet starts together its
// peers are not listening yet, and the next repair round retries the fetch.
func (h *Healer) Warmup(ctx context.Context) int {
	fetched := 0
	for _, peer := range h.cfg.Ring.Nodes() {
		if peer == h.cfg.Self || !h.peerUp(peer) {
			continue
		}
		_, n, _ := h.pullMissing(ctx, peer, h.warmupFetched)
		fetched += n
		if ctx.Err() != nil {
			break
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
