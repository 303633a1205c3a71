// The fleet-partition scenario: a real 3-node loopback fleet under
// kill/restart chaos. It is the multi-node counterpart of serve-http —
// where that scenario proves one server degrades honestly, this one proves
// the ring does: requests keep getting valid answers while an owner is
// dead, no surviving replica recomputes a plan another up replica already
// holds, and recovery converges back to serve-from-cache with zero new
// pipeline runs.

package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bootes/internal/fleet"
	"bootes/internal/leakcheck"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/planverify"
	"bootes/internal/reorder"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

const fleetNodes = 3

// fleetHarness is the episode's authoritative view of the cluster: which
// nodes the harness has killed (its up-set leads the routers' probed view),
// per-key compute counts, and the locked violation sink the concurrent
// plan wrapper reports into.
type fleetHarness struct {
	e        *episode
	name     string // scenario name, prefixes violation messages
	cluster  *fleet.Cluster
	ring     *ring.Ring
	replicas int

	mu       sync.Mutex
	up       map[string]bool
	computes map[string]int
	// perms is the first healthy permutation served for each key; every
	// later healthy answer for the key, from any node, phase, forward or
	// memo hit, must carry the same one.
	perms map[string][]int32
}

// markDown removes url from the harness up-set. Called BEFORE the node is
// actually killed so the compute-once check never counts a dying node's
// cache as available.
func (h *fleetHarness) markDown(url string) {
	h.mu.Lock()
	h.up[url] = false
	h.mu.Unlock()
}

// markUp re-admits url. Called only after every surviving router has probed
// the node back up, so "harness up" implies "fleet-visible up" — the order
// that makes the compute-once invariant sound.
func (h *fleetHarness) markUp(url string) {
	h.mu.Lock()
	h.up[url] = true
	h.mu.Unlock()
}

func (h *fleetHarness) node(url string) *fleet.Node {
	for _, nd := range h.cluster.Nodes {
		if nd.URL == url {
			return nd
		}
	}
	return nil
}

// plan is the fleet's shared pipeline: fast, deterministic, and instrumented
// with the scenario's sharpest invariant — a compute may only start when no
// harness-up replica of the key already holds it. Forwarding, peer fill,
// coalescing, and the cache double-check are collectively supposed to make
// such a recompute impossible; a hit here is a real routing bug.
func (h *fleetHarness) plan(_ context.Context, m *sparse.CSR, _ int) (*reorder.Result, error) {
	key := plancache.KeyCSR(m)
	h.mu.Lock()
	for _, rep := range h.ring.Replicas(key, h.replicas) {
		if !h.up[rep] {
			continue
		}
		nd := h.node(rep)
		if nd == nil {
			continue
		}
		if c := nd.Cache(); c != nil {
			if _, ok := c.Peek(key); ok {
				h.e.violatef("%s: recomputing %.12s while up replica %s already holds it", h.name, key, rep)
			}
		}
	}
	h.computes[key]++
	h.mu.Unlock()
	time.Sleep(time.Millisecond) // widen the coalescing window a little
	// A rotation by a key-derived offset: matrices of one size get different
	// plans, so an answer carrying another matrix's plan shows.
	shift := 1 + int(key[0])%max(m.Rows-1, 1)
	perm := make(sparse.Permutation, m.Rows)
	for i := range perm {
		perm[i] = int32((i + shift) % m.Rows)
	}
	return &reorder.Result{Perm: perm, Reordered: true, Extra: map[string]float64{"k": 8}}, nil
}

func (h *fleetHarness) computeCount(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.computes[key]
}

// upNodes snapshots the harness up-set as live node handles.
func (h *fleetHarness) upNodes() []*fleet.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*fleet.Node
	for _, nd := range h.cluster.Nodes {
		if h.up[nd.URL] {
			out = append(out, nd)
		}
	}
	return out
}

// violatef is the locked variant for the traffic goroutines.
func (h *fleetHarness) violatef(format string, args ...any) {
	h.mu.Lock()
	h.e.violatef(format, args...)
	h.mu.Unlock()
}

// waitUntil polls cond until it holds or the deadline passes; a timeout is
// an invariant violation (probes failed to converge).
func (h *fleetHarness) waitUntil(what string, cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.violatef("%s: timed out waiting for %s", h.name, what)
	return false
}

// peersSee reports whether every live node's router view of target matches
// wantUp. Up is the whole routing predicate: a peer seen up is forwarded to
// and filled from.
func (h *fleetHarness) peersSee(target string, wantUp bool) bool {
	for _, nd := range h.cluster.Nodes {
		if nd.URL == target || !nd.Alive() {
			continue
		}
		rt := nd.Router()
		if rt == nil {
			continue
		}
		found := false
		for _, pv := range rt.Peers() {
			if pv.URL != target {
				continue
			}
			found = true
			if pv.Up != wantUp {
				return false
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// scenarioFleetPartition drives a 3-node fleet through a full failure cycle:
// warm traffic through every node, abruptly kill the owner of a chosen key
// while requests are still flowing, keep serving through the survivors, then
// restart the owner and verify the fleet converges back to pure cache hits.
func scenarioFleetPartition(e *episode) {
	h := &fleetHarness{e: e, name: "fleet-partition", replicas: 2, up: make(map[string]bool), computes: make(map[string]int), perms: make(map[string][]int32)}
	c, err := fleet.LaunchCluster(fleetNodes, fleet.NodeConfig{
		Serve:    planserve.Config{Plan: h.plan, MaxInFlight: 4},
		CacheDir: filepath.Join(e.dir, "fleet"),
		Fleet: fleet.Config{
			Replicas: h.replicas,
			// Generous hedge delay: with a ~1ms pipeline, a hedge may only
			// fire when the primary actually died, keeping compute counts
			// readable.
			HedgeAfter:    2 * time.Second,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  time.Second,
			DownAfter:     2,
		},
	})
	if err != nil {
		e.violatef("fleet-partition: launch: %v", err)
		return
	}
	defer c.Close()
	h.cluster = c
	for _, u := range c.URLs() {
		h.up[u] = true
	}
	if h.ring, err = ring.New(c.URLs(), 0); err != nil {
		e.violatef("fleet-partition: ring: %v", err)
		return
	}

	// The episode's working set, drawn deterministically. bodies[i] is the
	// serialized form posted over HTTP; keys[i] its cache identity.
	nMatrices := 2 + e.rng.Intn(2)
	bodies := make([][]byte, nMatrices)
	keys := make([]string, nMatrices)
	rows := make([]int, nMatrices)
	for i := 0; i < nMatrices; i++ {
		m := e.matrix()
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
			e.violatef("fleet-partition: serialize: %v", err)
			return
		}
		bodies[i], keys[i], rows[i] = buf.Bytes(), plancache.KeyCSR(m), m.Rows
	}
	victimIdx := e.rng.Intn(nMatrices)
	victim := h.node(h.ring.Replicas(keys[victimIdx], h.replicas)[0])

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	// Phase 1: warm traffic — every body through every node, concurrently.
	// Forwarding must collapse all of it onto each key's owner.
	h.burst(client, bodies, keys, rows, h.upNodes())
	for i, k := range keys {
		if n := h.computeCount(k); n != 1 {
			e.violatef("fleet-partition: warm phase computed key %d %d times, want 1", i, n)
		}
	}

	// Phase 2: partition. Mark the victim down in the harness view FIRST
	// (the compute-once check must stop counting its cache), then crash it
	// and keep traffic flowing through the survivors while their probes and
	// in-flight forwards discover the loss.
	h.markDown(victim.URL)
	victim.Kill()
	for r := 0; r < 2; r++ {
		h.burst(client, bodies, keys, rows, h.upNodes())
	}
	h.waitUntil("survivors to mark the victim down", func() bool {
		return h.peersSee(victim.URL, false)
	})
	h.burst(client, bodies, keys, rows, h.upNodes())

	// Each key is computed at most once more by the surviving members of
	// its replica set; keys whose owner survived never recompute at all.
	for i, k := range keys {
		n := h.computeCount(k)
		owner := h.ring.Replicas(k, h.replicas)[0]
		switch {
		case owner != victim.URL && n != 1:
			e.violatef("fleet-partition: key %d (owner alive) computed %d times, want 1", i, n)
		case owner == victim.URL && n > 2:
			e.violatef("fleet-partition: key %d computed %d times across one owner crash, want ≤2", i, n)
		}
	}

	// Phase 3: recovery. Restart the victim on its old address and cache
	// dir; re-admit it to the harness view only once every survivor has
	// probed it up.
	if err := victim.Restart(); err != nil {
		e.violatef("fleet-partition: restart: %v", err)
		return
	}
	if h.waitUntil("survivors to probe the victim back up", func() bool {
		return h.peersSee(victim.URL, true)
	}) {
		h.markUp(victim.URL)
	}
	before := make(map[string]int, len(keys))
	for _, k := range keys {
		before[k] = h.computeCount(k)
	}
	h.burst(client, bodies, keys, rows, h.upNodes())
	for i, k := range keys {
		if n := h.computeCount(k); n != before[k] {
			e.violatef("fleet-partition: key %d recomputed after recovery (%d -> %d): caches did not converge", i, before[k], n)
		}
	}

	// Teardown invariants: every node drains to zero slots, and no node's
	// cache holds a corrupt entry after the crash cycle.
	for _, nd := range c.Nodes {
		nd := nd
		if err := leakcheck.SettleZero("slots "+nd.URL, func() int64 {
			if s := nd.Server(); s != nil {
				return int64(s.SlotsInUse())
			}
			return 0
		}); err != nil {
			e.violatef("fleet-partition: %v", err)
		}
	}
	c.Close()
	for i := 0; i < fleetNodes; i++ {
		h.sweepNodeCache(filepath.Join(e.dir, "fleet", fmt.Sprintf("node%d", i)))
	}
}

// burst posts every body once through every given node concurrently and
// validates the responses: on 200 a parseable valid-or-marked-degraded plan
// for the body's own key, whose permutation, when healthy, is the one every
// healthy answer for that key has carried; an honest refusal otherwise.
// Transport errors count as refusals — the harness races its own kills, so a
// connection can die mid-request.
func (h *fleetHarness) burst(client *http.Client, bodies [][]byte, keys []string, rows []int, nodes []*fleet.Node) {
	type result struct {
		code int
		body []byte
		idx  int
	}
	var wg sync.WaitGroup
	results := make(chan result, len(bodies)*len(nodes))
	for _, nd := range nodes {
		for i := range bodies {
			wg.Add(1)
			go func(url string, i int) {
				defer wg.Done()
				resp, err := client.Post(url+"/v1/plan?perm=1", "application/octet-stream", bytes.NewReader(bodies[i]))
				if err != nil {
					results <- result{code: -1}
					return
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				results <- result{code: resp.StatusCode, body: data, idx: i}
			}(nd.URL, i)
		}
	}
	wg.Wait()
	close(results)
	for out := range results {
		switch out.code {
		case http.StatusOK:
			var pr planserve.PlanResponse
			if err := json.Unmarshal(out.body, &pr); err != nil {
				h.violatef("%s: unparseable 200 body: %v", h.name, err)
				continue
			}
			if pr.Key != keys[out.idx] {
				h.violatef("%s: body %d answered with key %.12s, want its own %.12s", h.name, out.idx, pr.Key, keys[out.idx])
				continue
			}
			h.checkShape(rows[out.idx], &pr)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, http.StatusBadGateway, -1:
			h.mu.Lock()
			h.e.rep.Refused++
			h.mu.Unlock()
		default:
			h.violatef("%s: unexpected status %d: %.200s", h.name, out.code, out.body)
		}
	}
}

// checkShape is checkPlanShape under the harness lock (bursts are concurrent
// only with each other, but the report is shared episode state).
func (h *fleetHarness) checkShape(rows int, pr *planserve.PlanResponse) {
	vs := planverify.CheckPlan(rows, sparse.Permutation(pr.Perm), pr.K, pr.Reordered, pr.Degraded, pr.DegradedReason)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(vs) > 0 {
		h.e.violatef("%s: invalid plan served: %v", h.name, vs)
		return
	}
	if pr.Degraded {
		h.e.rep.DegradedPlans++
		return
	}
	h.e.rep.Healthy++
	if first, ok := h.perms[pr.Key]; !ok {
		h.perms[pr.Key] = pr.Perm
	} else if !slices.Equal(pr.Perm, first) {
		h.e.violatef("%s: key %.12s served two different healthy plans (cached=%v)", h.name, pr.Key, pr.Cached)
	}
}

// sweepNodeCache reopens one node's cache directory post-mortem and asserts
// the crash cycle left no corrupt or invalid entry behind.
func (h *fleetHarness) sweepNodeCache(dir string) {
	c, err := plancache.Open(dir)
	if err != nil {
		h.violatef("%s: cache sweep %s: %v", h.name, dir, err)
		return
	}
	if q := c.Stats().Quarantined; q != 0 {
		h.violatef("%s: %d entries quarantined in %s after crash cycle", h.name, q, dir)
	}
	for _, key := range c.Keys() {
		entry, ok := c.Get(key)
		if !ok {
			continue
		}
		if vs := planverify.CheckEntryFields(len(entry.Perm), entry.Perm, entry.K, entry.Reordered, entry.Degraded, entry.DegradedReason); len(vs) > 0 {
			h.violatef("%s: cache entry %.12s invalid after crash cycle: %v", h.name, key, vs)
		}
	}
}
