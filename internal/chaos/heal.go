// The fleet-heal scenario: a 3-node self-healing fleet through a full
// kill → write-through-survivors → restart → converge cycle. Where
// fleet-partition proves the ring routes around a dead owner, this scenario
// proves the anti-entropy layer repairs the damage the outage left behind:
// the restarted node pulls the writes it missed, warming its owned ranges
// before answering ready, and the fleet converges to byte-identical replica
// sets with zero pipeline reruns.

package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/fleet"
	"bootes/internal/leakcheck"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

func scenarioFleetHeal(e *episode) {
	h := &fleetHarness{e: e, name: "fleet-heal", replicas: 2, up: make(map[string]bool), computes: make(map[string]int), perms: make(map[string][]int32)}
	c, err := fleet.LaunchCluster(fleetNodes, fleet.NodeConfig{
		Serve:    planserve.Config{Plan: h.plan, MaxInFlight: 4},
		CacheDir: filepath.Join(e.dir, "fleet-heal"),
		Fleet: fleet.Config{
			Replicas:      h.replicas,
			HedgeAfter:    2 * time.Second,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  time.Second,
			DownAfter:     2,
		},
		SelfHeal: true,
		Heal: antientropy.Config{
			// Jittered repair pacing: different episodes interleave repair
			// rounds differently against the probe and traffic schedules.
			RepairInterval: time.Duration(25+e.rng.Intn(50)) * time.Millisecond,
			ScrubInterval:  5 * time.Millisecond,
		},
		WarmupDeadline: 5 * time.Second,
	})
	if err != nil {
		e.violatef("fleet-heal: launch: %v", err)
		return
	}
	defer c.Close()
	h.cluster = c
	for _, u := range c.URLs() {
		h.up[u] = true
	}
	if h.ring, err = ring.New(c.URLs(), 0); err != nil {
		e.violatef("fleet-heal: ring: %v", err)
		return
	}

	// Synchronous replication consults each router's up-view; start from a
	// settled fleet so phase-1 writes reach their full replica sets.
	h.waitUntil("mutual up-view", func() bool {
		for _, u := range c.URLs() {
			if !h.peersSee(u, true) {
				return false
			}
		}
		return true
	})

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	newSet := func(n int) (bodies [][]byte, keys []string, rows []int) {
		for i := 0; i < n; i++ {
			m := e.matrix()
			var buf bytes.Buffer
			if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
				e.violatef("fleet-heal: serialize: %v", err)
				return nil, nil, nil
			}
			bodies = append(bodies, buf.Bytes())
			keys = append(keys, plancache.KeyCSR(m))
			rows = append(rows, m.Rows)
		}
		return bodies, keys, rows
	}

	// Phase 1: warm writes with the whole fleet up. Each key computes once
	// and lands on every member of its replica set (coalesced followers can
	// return a hair before the computing goroutine finishes replicating, so
	// the replica check polls).
	bodies1, keys1, rows1 := newSet(2 + e.rng.Intn(3))
	if bodies1 == nil {
		return
	}
	h.burst(client, bodies1, keys1, rows1, h.upNodes())
	for i, k := range keys1 {
		if n := h.computeCount(k); n != 1 {
			e.violatef("fleet-heal: warm phase computed key %d %d times, want 1", i, n)
		}
	}
	onReplicas := func(keys []string) func() bool {
		return func() bool {
			for _, k := range keys {
				for _, rep := range h.ring.Replicas(k, h.replicas) {
					nd := h.node(rep)
					if nd == nil || !nd.Alive() {
						continue
					}
					if _, ok := nd.Cache().Stat(k); !ok {
						return false
					}
				}
			}
			return true
		}
	}
	h.waitUntil("phase-1 writes to replicate", onReplicas(keys1))

	// Phase 2: kill one node, wait until the survivors see it down, then
	// write fresh keys through the survivors. Writes whose replica set
	// includes the dead node reach it only by its own pulls.
	victim := c.Nodes[e.rng.Intn(fleetNodes)]
	h.markDown(victim.URL)
	victim.Kill()
	h.waitUntil("survivors to mark the victim down", func() bool {
		return h.peersSee(victim.URL, false)
	})

	bodies2, keys2, rows2 := newSet(2 + e.rng.Intn(2))
	if bodies2 == nil {
		return
	}
	h.burst(client, bodies2, keys2, rows2, h.upNodes())
	for i, k := range keys2 {
		if n := h.computeCount(k); n != 1 {
			e.violatef("fleet-heal: outage phase computed key %d %d times, want 1", i, n)
		}
	}
	// Replaying the warm set through the survivors must stay pure cache.
	h.burst(client, bodies1, keys1, rows1, h.upNodes())
	for i, k := range keys1 {
		if n := h.computeCount(k); n != 1 {
			e.violatef("fleet-heal: warm key %d recomputed during outage (%d computes)", i, n)
		}
	}

	allKeys := append(append([]string(nil), keys1...), keys2...)
	var victimOwned []string
	for _, k := range allKeys {
		if h.ring.OwnedBy(k, victim.URL, h.replicas) {
			victimOwned = append(victimOwned, k)
		}
	}
	sort.Strings(victimOwned)

	// Half the episodes also rot one victim-owned entry on disk while the
	// node is down: restart must quarantine it and warm-up must re-fetch it.
	if len(victimOwned) > 0 && e.rng.Intn(2) == 0 {
		rotKey := victimOwned[e.rng.Intn(len(victimOwned))]
		path := filepath.Join(victimDir(e, c, victim), rotKey+plancache.Ext)
		if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
			raw[len(raw)-1] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				e.violatef("fleet-heal: injecting rot: %v", err)
			}
		}
	}

	// Phase 3: restart under a readiness poller. The first 200 from /readyz
	// must come with every victim-owned key already fetched — warming holds
	// readiness at 503 until the owned ranges are in.
	before := make(map[string]int, len(allKeys))
	for _, k := range allKeys {
		before[k] = h.computeCount(k)
	}
	ready := make(chan struct{})
	go func() {
		defer close(ready)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := client.Get(victim.URL + "/readyz")
			if err != nil {
				time.Sleep(2 * time.Millisecond) // still down or rebinding
				continue
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusOK {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			h.checkWarmedDigest(client, victim.URL, victimOwned)
			return
		}
		h.violatef("fleet-heal: victim never answered ready after restart")
	}()
	if err := victim.Restart(); err != nil {
		e.violatef("fleet-heal: restart: %v", err)
		return
	}
	<-ready

	h.waitUntil("survivors to probe the victim back up", func() bool {
		return h.peersSee(victim.URL, true)
	})
	h.markUp(victim.URL)
	h.waitUntil("victim to converge to its exact owned key set", func() bool {
		cache := victim.Cache()
		if cache == nil {
			return false
		}
		got := cache.Keys()
		if len(got) != len(victimOwned) {
			return false
		}
		for i, k := range got {
			if victimOwned[i] != k {
				return false
			}
		}
		return true
	})

	// Convergence was replication-only: no key recomputed, during recovery
	// or on a full replay through every node.
	for i, k := range allKeys {
		if n := h.computeCount(k); n != before[k] {
			e.violatef("fleet-heal: key %d recomputed during convergence (%d -> %d)", i, before[k], n)
		}
	}
	h.burst(client, append(append([][]byte(nil), bodies1...), bodies2...), allKeys,
		append(append([]int(nil), rows1...), rows2...), h.upNodes())
	for i, k := range allKeys {
		if n := h.computeCount(k); n != before[k] {
			e.violatef("fleet-heal: key %d recomputed after convergence (%d -> %d)", i, before[k], n)
		}
	}

	// Digest agreement: every replica of every key holds identical bytes.
	for _, k := range allKeys {
		reps := h.ring.Replicas(k, h.replicas)
		first, ok := h.node(reps[0]).Cache().Stat(k)
		if !ok {
			e.violatef("fleet-heal: key %.12s missing on its primary after convergence", k)
			continue
		}
		for _, rep := range reps[1:] {
			if st, ok := h.node(rep).Cache().Stat(k); !ok || st != first {
				e.violatef("fleet-heal: replica digests diverge for %.12s on %s", k, rep)
			}
		}
	}

	for _, nd := range c.Nodes {
		nd := nd
		if err := leakcheck.SettleZero("slots "+nd.URL, func() int64 {
			if s := nd.Server(); s != nil {
				return int64(s.SlotsInUse())
			}
			return 0
		}); err != nil {
			e.violatef("fleet-heal: %v", err)
		}
	}
	c.Close()
	for i := 0; i < fleetNodes; i++ {
		h.sweepNodeCache(filepath.Join(e.dir, "fleet-heal", fmt.Sprintf("node%d", i)))
	}
}

// victimDir maps a node back to its on-disk cache directory.
func victimDir(e *episode, c *fleet.Cluster, victim *fleet.Node) string {
	for i, nd := range c.Nodes {
		if nd == victim {
			return filepath.Join(e.dir, "fleet-heal", fmt.Sprintf("node%d", i))
		}
	}
	return ""
}

// checkWarmedDigest asserts the node's advertised digest covers every owned
// key — called at the moment /readyz first answered 200.
func (h *fleetHarness) checkWarmedDigest(client *http.Client, url string, owned []string) {
	resp, err := client.Get(url + "/v1/cache/digest")
	if err != nil {
		h.violatef("%s: digest after ready: %v", h.name, err)
		return
	}
	defer resp.Body.Close()
	var d antientropy.Digest
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		h.violatef("%s: decoding digest after ready: %v", h.name, err)
		return
	}
	have := make(map[string]bool, len(d.Entries))
	for _, de := range d.Entries {
		have[de.Key] = true
	}
	for _, k := range owned {
		if !have[k] {
			h.violatef("%s: ready answered 200 with owned key %.12s still unfetched", h.name, k)
		}
	}
}
