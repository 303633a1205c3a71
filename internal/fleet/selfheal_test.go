package fleet

import (
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/planserve"
)

// nodeByURL maps a ring member name back to its cluster node.
func nodeByURL(t testing.TB, c *Cluster, url string) *Node {
	t.Helper()
	for _, nd := range c.Nodes {
		if nd.URL == url {
			return nd
		}
	}
	t.Fatalf("no node with URL %s", url)
	return nil
}

// TestSelfHealReplicationKillRecover is the fleet-level self-healing
// integration: fresh plans replicate synchronously across their replica set;
// writes during a replica's outage reach the survivors only; the restarted
// replica pulls what it missed as it warms up and converges to its exact
// owned key set — all without a single recompute, and without any node
// keeping a <cache>/hints spool.
func TestSelfHealReplicationKillRecover(t *testing.T) {
	var computes atomic.Int64
	c, err := LaunchCluster(3, NodeConfig{
		Serve:          planserve.Config{Plan: countingPlan(&computes)},
		CacheDir:       t.TempDir(),
		Fleet:          Config{ProbeInterval: 25 * time.Millisecond},
		SelfHeal:       true,
		Heal:           antientropy.Config{RepairInterval: 50 * time.Millisecond},
		WarmupDeadline: 3 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	const replicas = 2 // fleet default
	ringOf := c.Nodes[0].Router().Ring()

	// Synchronous replication only targets peers the router sees as up; wait
	// for every node to hold a full up-view before asserting on it.
	allUp := func(except string) func() bool {
		return func() bool {
			for _, nd := range c.Nodes {
				if nd.URL == except || !nd.Alive() {
					continue
				}
				for _, peer := range c.URLs() {
					if peer == except {
						continue
					}
					if rt := nd.Router(); rt == nil || !rt.PeerUp(peer) {
						return false
					}
				}
			}
			return true
		}
	}
	waitFor(t, 5*time.Second, allUp(""), "fleet never reached a mutual up-view")

	// Phase 1: plans written with the whole fleet up replicate synchronously.
	keys := map[string]bool{}
	post := func(seed int64, via *Node) string {
		t.Helper()
		body := mmBody(t, testMatrix(t, seed))
		resp, _ := postPlan(t, client, via.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		key := keyMust(t, body)
		keys[key] = true
		return key
	}
	for seed := int64(1); seed <= 6; seed++ {
		post(seed, c.Nodes[int(seed)%3])
	}
	for key := range keys {
		for _, rep := range ringOf.Replicas(key, replicas) {
			if _, ok := nodeByURL(t, c, rep).Cache().Stat(key); !ok {
				t.Fatalf("key %s missing on replica %s right after the write", key, rep)
			}
		}
	}
	baseline := computes.Load()
	if baseline != 6 {
		t.Fatalf("computed %d plans for 6 distinct matrices", baseline)
	}

	// Phase 2: kill one node; once the survivors mark it down, keep writing.
	victim := c.Nodes[2]
	survivors := []*Node{c.Nodes[0], c.Nodes[1]}
	victim.Kill()
	for _, nd := range survivors {
		rt := nd.Router()
		waitFor(t, 5*time.Second, func() bool { return !rt.PeerUp(victim.URL) },
			"survivor never marked the killed node down")
	}
	for seed := int64(7); seed <= 12; seed++ {
		post(seed, survivors[int(seed)%2])
	}
	if n := computes.Load(); n != 12 {
		t.Fatalf("computed %d plans for 12 distinct matrices", n)
	}

	victimOwned := 0
	for key := range keys {
		if ringOf.OwnedBy(key, victim.URL, replicas) {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Skip("no key landed on the victim's ranges; seed set too small")
	}

	// Phase 3: restart. Warm-up runs inside Restart, so by the time it
	// returns the victim has pulled what its replicas held.
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		for key := range keys {
			if !ringOf.OwnedBy(key, victim.URL, replicas) {
				continue
			}
			if _, ok := victim.Cache().Stat(key); !ok {
				return false
			}
		}
		return true
	}, "restarted node never converged to its owned key set")

	// Convergence used replication only: the pipeline never re-ran.
	if n := computes.Load(); n != 12 {
		t.Fatalf("recovery recomputed plans: %d computes, want 12", n)
	}

	// Digest agreement: every replica of every key holds identical bytes.
	for key := range keys {
		reps := ringOf.Replicas(key, replicas)
		first, ok := nodeByURL(t, c, reps[0]).Cache().Stat(key)
		if !ok {
			t.Fatalf("key %s missing on primary %s", key, reps[0])
		}
		for _, rep := range reps[1:] {
			st, ok := nodeByURL(t, c, rep).Cache().Stat(key)
			if !ok || st != first {
				t.Fatalf("replica digest mismatch for %s on %s: %+v vs %+v", key, rep, st, first)
			}
		}
	}
	for _, nd := range c.Nodes {
		if _, err := os.Stat(filepath.Join(nd.Cache().Dir(), "hints")); !os.IsNotExist(err) {
			t.Fatalf("node %s keeps a hints directory (%v)", nd.URL, err)
		}
	}
}
