// End-to-end healer tests: every peer is a real planserve server (the same
// handler stack production runs), so digest fetches, pulls and pushes ride
// the actual HTTP endpoints. External test package because planserve imports
// antientropy.
package antientropy_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bootes/internal/antientropy"
	"bootes/internal/plancache"
	"bootes/internal/planserve"
	"bootes/internal/reorder"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

// peer is one fake fleet member: a cache behind a real planserve handler.
type peer struct {
	cache *plancache.Cache
	srv   *planserve.Server
	ts    *httptest.Server
}

// newPeer serves a cache as a self-healing planserve node would, so it takes
// pushes. The server's own healer only opens that ingest; each test drives
// the healers it builds with newHealer over the whole ring.
func newPeer(t *testing.T) *peer {
	t.Helper()
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	r, err := ring.New([]string{self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	own, err := antientropy.New(antientropy.Config{Cache: cache, Ring: r, Self: self, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := planserve.New(planserve.Config{
		Plan: func(context.Context, *sparse.CSR, int) (*reorder.Result, error) {
			return nil, errors.New("healer tests never plan")
		},
		Cache: cache,
		Heal:  own,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts.Config.Handler = srv.Handler()
	ts.Start()
	t.Cleanup(ts.Close)
	return &peer{cache: cache, srv: srv, ts: ts}
}

// tree lists every path under dir.
func tree(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		paths = append(paths, path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// mkEntry builds a valid entry under an arbitrary filename-safe key.
func mkEntry(t *testing.T, key string, k int) *plancache.Entry {
	t.Helper()
	const rows = 16
	perm := make(sparse.Permutation, rows)
	for i := range perm {
		perm[i] = int32(rows - 1 - i)
	}
	return &plancache.Entry{Key: key, Perm: perm, Reordered: true, K: k}
}

// newHealer builds a healer for self over the given peers' URLs.
func newHealer(t *testing.T, self *peer, cfg antientropy.Config, peers ...*peer) *antientropy.Healer {
	t.Helper()
	urls := []string{self.ts.URL}
	for _, p := range peers {
		urls = append(urls, p.ts.URL)
	}
	r, err := ring.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = self.cache
	cfg.Ring = r
	cfg.Self = self.ts.URL
	if cfg.Replicas == 0 {
		cfg.Replicas = len(urls)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	h, err := antientropy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReplicateSkipsDownReplicaWhichPullsItself: a fresh write replicates
// to an up peer synchronously. With the peer down in A's view, Replicate
// pushes nothing and writes nothing under A's cache directory; B's own
// repair round then pulls the entry it missed, byte-identical.
func TestReplicateSkipsDownReplicaWhichPullsItself(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	up := true
	ha := newHealer(t, a, antientropy.Config{PeerUp: func(string) bool { return up }}, b)

	e1 := mkEntry(t, "key-live", 4)
	if err := a.cache.Put(e1); err != nil {
		t.Fatal(err)
	}
	ha.Replicate(e1.Key)
	if _, ok := b.cache.Peek(e1.Key); !ok {
		t.Fatal("live replicate did not reach the peer")
	}
	if st := ha.Stats(); st.Pushes != 1 {
		t.Fatalf("stats after live replicate: %+v", st)
	}

	// B down in A's view: nothing is pushed, and nothing is kept for B.
	up = false
	e2 := mkEntry(t, "key-missed", 8)
	if err := a.cache.Put(e2); err != nil {
		t.Fatal(err)
	}
	before := tree(t, a.cache.Dir())
	ha.Replicate(e2.Key)
	if _, ok := b.cache.Peek(e2.Key); ok {
		t.Fatal("replicate reached a down peer")
	}
	if st := ha.Stats(); st.Pushes != 1 || st.PushFailures != 0 {
		t.Fatalf("stats after replicate to a down peer: %+v", st)
	}
	if after := tree(t, a.cache.Dir()); !slices.Equal(after, before) {
		t.Fatalf("replicate to a down peer wrote under the cache dir: %v, was %v", after, before)
	}

	// B's own repair round pulls the write it missed.
	hb := newHealer(t, b, antientropy.Config{}, a)
	hb.RepairOnce(context.Background())
	sa, _ := a.cache.Stat(e2.Key)
	if sb, ok := b.cache.Stat(e2.Key); !ok || sb != sa {
		t.Fatalf("after B's repair: %+v (held %v), A holds %+v", sb, ok, sa)
	}
	if st := hb.Stats(); st.RepairedMissing != 1 {
		t.Fatalf("RepairedMissing = %d, want 1", st.RepairedMissing)
	}
}

// TestRepairPullsMissing: a repair round pulls owned keys a peer holds that
// the local cache lacks, and converges the digests.
func TestRepairPullsMissing(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	for i := 0; i < 4; i++ {
		if err := b.cache.Put(mkEntry(t, fmt.Sprintf("key-%03d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	h := newHealer(t, a, antientropy.Config{}, b)
	h.RepairOnce(context.Background())

	if got, want := a.cache.Keys(), b.cache.Keys(); len(got) != len(want) {
		t.Fatalf("after repair: %d keys locally, peer has %d", len(got), len(want))
	}
	for _, k := range b.cache.Keys() {
		sa, oka := a.cache.Stat(k)
		sb, okb := b.cache.Stat(k)
		if !oka || !okb || sa != sb {
			t.Fatalf("digest mismatch for %q after repair: %+v vs %+v", k, sa, sb)
		}
	}
	if st := h.Stats(); st.RepairedMissing != 4 {
		t.Fatalf("RepairedMissing = %d, want 4", st.RepairedMissing)
	}
}

// TestDivergentConvergesToCanonicalBytes: when two replicas hold different
// bytes for one key, both repair directions settle on the lexicographically
// smaller encoding — whichever side runs repair first.
func TestDivergentConvergesToCanonicalBytes(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	ea, eb := mkEntry(t, "key-div", 4), mkEntry(t, "key-div", 8)
	if err := a.cache.Put(ea); err != nil {
		t.Fatal(err)
	}
	if err := b.cache.Put(eb); err != nil {
		t.Fatal(err)
	}
	da, err := plancache.EncodeEntry(ea)
	if err != nil {
		t.Fatal(err)
	}
	db, err := plancache.EncodeEntry(eb)
	if err != nil {
		t.Fatal(err)
	}
	canonical := da
	if bytes.Compare(db, da) < 0 {
		canonical = db
	}

	ha := newHealer(t, a, antientropy.Config{}, b)
	hb := newHealer(t, b, antientropy.Config{}, a)
	ha.RepairOnce(context.Background())
	hb.RepairOnce(context.Background())

	for name, c := range map[string]*plancache.Cache{"a": a.cache, "b": b.cache} {
		got, ok := c.Peek("key-div")
		if !ok {
			t.Fatalf("%s lost the key", name)
		}
		data, err := plancache.EncodeEntry(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, canonical) {
			t.Fatalf("%s holds non-canonical bytes after repair", name)
		}
	}
	if n := ha.Stats().RepairedDivergent + hb.Stats().RepairedDivergent; n != 1 {
		t.Fatalf("RepairedDivergent total = %d, want exactly 1 adoption", n)
	}
}

// TestWarmupStreamsOwnedKeys: a cold node pulls every owned key from its
// replicas before flipping ready; an expired deadline stops cleanly.
func TestWarmupStreamsOwnedKeys(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	for i := 0; i < 5; i++ {
		if err := b.cache.Put(mkEntry(t, fmt.Sprintf("warm-%03d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	h := newHealer(t, a, antientropy.Config{}, b)
	if n := h.Warmup(context.Background()); n != 5 {
		t.Fatalf("Warmup fetched %d, want 5", n)
	}
	if a.cache.Len() != 5 {
		t.Fatalf("cache has %d entries after warm-up", a.cache.Len())
	}
	if st := h.Stats(); st.WarmupFetched != 5 {
		t.Fatalf("WarmupFetched = %d", st.WarmupFetched)
	}

	// An already-expired deadline fetches nothing and does not hang.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cold := newPeer(t)
	hc := newHealer(t, cold, antientropy.Config{}, b)
	if n := hc.Warmup(ctx); n != 0 {
		t.Fatalf("expired warm-up fetched %d", n)
	}
}

// TestWarmupSkipsPeersNotListening: nodes of a fleet that start together
// warm up before their peers listen. Those failed digest fetches are not
// fetch failures, since the next repair round retries them; a repair round
// against a stopped peer still counts one.
func TestWarmupSkipsPeersNotListening(t *testing.T) {
	a, b, c := newPeer(t), newPeer(t), newPeer(t)
	h := newHealer(t, a, antientropy.Config{}, b, c)
	b.ts.Close()
	c.ts.Close()
	if n := h.Warmup(context.Background()); n != 0 {
		t.Fatalf("Warmup fetched %d from stopped peers", n)
	}
	if st := h.Stats(); st.FetchFailures != 0 {
		t.Fatalf("FetchFailures = %d after warming up against 2 stopped peers, want 0", st.FetchFailures)
	}
	h.RepairOnce(context.Background())
	if st := h.Stats(); st.FetchFailures != 2 {
		t.Fatalf("FetchFailures = %d after a repair round against 2 stopped peers, want 2", st.FetchFailures)
	}
}

// TestDrainPushHandsOffEntries: drain pushes local entries to replicas that
// lack them, skipping ones they already hold.
func TestDrainPushHandsOffEntries(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	shared := mkEntry(t, "key-shared", 4)
	sole := mkEntry(t, "key-sole", 8)
	for _, e := range []*plancache.Entry{shared, sole} {
		if err := a.cache.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.cache.Put(shared); err != nil {
		t.Fatal(err)
	}
	h := newHealer(t, a, antientropy.Config{}, b)
	h.DrainPush(context.Background())
	if _, ok := b.cache.Peek(sole.Key); !ok {
		t.Fatal("solely-held entry not pushed on drain")
	}
	if st := h.Stats(); st.Pushes != 1 {
		t.Fatalf("Pushes = %d, want 1 (shared key must be skipped)", st.Pushes)
	}
}

// TestDropNotOwnedHandsOffFirst: with Replicas=1, keys owned elsewhere are
// pushed to their owner and only then deleted locally; with the owner down
// the entry is retained (never destroy the last copy).
func TestDropNotOwnedHandsOffFirst(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	r, err := ring.New([]string{a.ts.URL, b.ts.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a key owned by b under Replicas=1.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("stray-%03d", i)
		if r.Owner(key) == b.ts.URL {
			break
		}
	}
	if err := a.cache.Put(mkEntry(t, key, 4)); err != nil {
		t.Fatal(err)
	}

	up := false
	h := newHealer(t, a, antientropy.Config{Replicas: 1, PeerUp: func(string) bool { return up }}, b)
	h.RepairOnce(context.Background())
	if _, ok := a.cache.Peek(key); !ok {
		t.Fatal("unowned entry dropped while its owner was down")
	}

	up = true
	h.RepairOnce(context.Background())
	if _, ok := b.cache.Peek(key); !ok {
		t.Fatal("unowned entry not handed to its owner")
	}
	if _, ok := a.cache.Peek(key); ok {
		t.Fatal("unowned entry retained after handoff")
	}
	if st := h.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d", st.Dropped)
	}
}

// TestScrubRepairsBitRot: the background scrubber finds a silently corrupted
// on-disk entry, quarantines it, and restores it from a replica.
func TestScrubRepairsBitRot(t *testing.T) {
	a, b := newPeer(t), newPeer(t)
	e := mkEntry(t, "key-rot", 4)
	for _, c := range []*plancache.Cache{a.cache, b.cache} {
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a payload byte behind the cache's back.
	path := filepath.Join(a.cache.Dir(), e.Key+plancache.Ext)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	h := newHealer(t, a, antientropy.Config{
		ScrubInterval:  2 * time.Millisecond,
		RepairInterval: time.Hour, // isolate the scrub path
	}, b)
	h.Start()
	defer h.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := h.Stats(); st.ScrubRepaired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never repaired the entry: %+v", h.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, ok := a.cache.Peek(e.Key)
	if !ok {
		t.Fatal("entry missing after scrub repair")
	}
	want, err := plancache.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	gotData, err := plancache.EncodeEntry(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, want) {
		t.Fatal("scrub repair restored different bytes")
	}
	if _, err := os.Stat(path + plancache.QuarantineSuffix); err != nil {
		t.Fatal("corrupt bytes not preserved in quarantine")
	}
}
