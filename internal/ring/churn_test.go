// Ring-churn ↔ anti-entropy agreement: the key sets a node must acquire and
// drop when the ring changes, computed directly from OwnedBy, must be exactly
// the Missing and NotOwned sets the repair loop's digest diff computes. If
// these ever disagree, repair either leaks entries forever or deletes owned
// ones. External test package because antientropy imports ring.
package ring_test

import (
	"fmt"
	"testing"

	"bootes/internal/antientropy"
	"bootes/internal/plancache"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

func TestRingChurnAgreement(t *testing.T) {
	const (
		nKeys    = 200
		replicas = 2
	)
	nodes3 := []string{"http://a", "http://b", "http://c"}
	nodes2 := []string{"http://a", "http://b"}
	r3, err := ring.New(nodes3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ring.New(nodes2, 0)
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}

	// OwnedBy must agree with scanning Replicas, and every key must have
	// exactly `replicas` owners.
	for _, r := range []*ring.Ring{r3, r2} {
		for _, k := range keys {
			reps := r.Replicas(k, replicas)
			inReps := make(map[string]bool, len(reps))
			for _, n := range reps {
				inReps[n] = true
			}
			owners := 0
			for _, n := range r.Nodes() {
				if r.OwnedBy(k, n, replicas) != inReps[n] {
					t.Fatalf("OwnedBy(%q, %q) disagrees with Replicas %v", k, n, reps)
				}
				if inReps[n] {
					owners++
				}
			}
			if owners != replicas {
				t.Fatalf("key %q has %d owners", k, owners)
			}
		}
	}
	if r3.OwnedBy(keys[0], "http://ghost", replicas) {
		t.Fatal("non-member owns a key")
	}

	// ownedCache builds a cache holding exactly the keys node owns under r —
	// the steady state the repair loop converges each node to.
	ownedCache := func(r *ring.Ring, node string) *plancache.Cache {
		t.Helper()
		c, err := plancache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		perm := make(sparse.Permutation, 8)
		for i := range perm {
			perm[i] = int32(len(perm) - 1 - i)
		}
		for _, k := range keys {
			if r.OwnedBy(k, node, replicas) {
				if err := c.Put(&plancache.Entry{Key: k, Perm: perm, Reordered: true, K: 4}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c
	}

	// universe is a peer digest advertising every key, as a fully-caught-up
	// replica would during churn.
	full, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	{
		perm := make(sparse.Permutation, 8)
		for i := range perm {
			perm[i] = int32(len(perm) - 1 - i)
		}
		for _, k := range keys {
			if err := full.Put(&plancache.Entry{Key: k, Perm: perm, Reordered: true, K: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	universe := antientropy.DigestOf(full)

	// churn runs one membership change for one node: the cache holds the
	// old-ring ownership, the diff runs against the new ring, and the
	// acquire/drop sets must match the direct OwnedBy delta.
	churn := func(node string, oldR, newR *ring.Ring) {
		t.Helper()
		c := ownedCache(oldR, node)
		owns := func(k string) bool { return newR.OwnedBy(k, node, replicas) }
		diff := antientropy.ComputeDiff(c, universe, owns)

		wantAcquire := map[string]bool{}
		wantDrop := map[string]bool{}
		for _, k := range keys {
			was := oldR.OwnedBy(k, node, replicas)
			is := newR.OwnedBy(k, node, replicas)
			if is && !was {
				wantAcquire[k] = true
			}
			if was && !is {
				wantDrop[k] = true
			}
		}
		if len(diff.Missing) != len(wantAcquire) {
			t.Fatalf("%s: diff.Missing has %d keys, ownership delta says %d",
				node, len(diff.Missing), len(wantAcquire))
		}
		for _, k := range diff.Missing {
			if !wantAcquire[k] {
				t.Fatalf("%s: diff would pull %q which ownership never moved", node, k)
			}
		}
		if len(diff.NotOwned) != len(wantDrop) {
			t.Fatalf("%s: diff.NotOwned has %d keys, ownership delta says %d",
				node, len(diff.NotOwned), len(wantDrop))
		}
		for _, k := range diff.NotOwned {
			if !wantDrop[k] {
				t.Fatalf("%s: diff would drop %q which the node still owns", node, k)
			}
		}
		if len(diff.Divergent) != 0 {
			t.Fatalf("%s: identical bytes reported divergent: %v", node, diff.Divergent)
		}
	}

	// Remove c, then add it back: surviving nodes absorb c's ranges, then
	// return them. Every node's repair plan must match the ownership delta in
	// both directions.
	for _, node := range nodes2 {
		churn(node, r3, r2)
		churn(node, r2, r3)
	}
	// The re-added node itself starts from its pre-removal cache: a no-op
	// churn must compute an empty repair plan.
	{
		c := ownedCache(r3, "http://c")
		diff := antientropy.ComputeDiff(c, universe, func(k string) bool {
			return r3.OwnedBy(k, "http://c", replicas)
		})
		if len(diff.Missing) != 0 || len(diff.NotOwned) != 0 {
			t.Fatalf("converged node computes non-empty repair: %+v", diff)
		}
	}
}
