package planserve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"bootes"
	"bootes/internal/antientropy"
	"bootes/internal/plancache"
	"bootes/internal/ring"
	"bootes/internal/sparse"
)

// newHealer builds an idle healer over cache on a one-node ring: enough to
// make a server self-healing (its /statsz Heal section and replica ingest).
func newHealer(t *testing.T, cache *plancache.Cache) *antientropy.Healer {
	t.Helper()
	r, err := ring.New([]string{"http://self"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	healer, err := antientropy.New(antientropy.Config{
		Cache: cache,
		Ring:  r,
		Self:  "http://self",
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return healer
}

// putEntry PUTs one encoded entry at the anti-entropy ingest endpoint.
func putEntry(t *testing.T, url, key string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+"/v1/cache/"+key, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp
}

// healthyEntry builds a valid cacheable entry for m.
func healthyEntry(t *testing.T, m *sparse.CSR) *plancache.Entry {
	t.Helper()
	n := m.Rows
	perm := make(sparse.Permutation, n)
	for i := range perm {
		perm[i] = int32(n - 1 - i)
	}
	return &plancache.Entry{Key: plancache.KeyCSR(m), Perm: perm, Reordered: true, K: 4}
}

// TestCachePutEndpoint covers the ingest endpoint's verification bar and the
// canonical-bytes conflict rule on a self-healing server.
func TestCachePutEndpoint(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, Heal: newHealer(t, cache)})

	e := healthyEntry(t, testMatrix(t, 1))
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if resp := putEntry(t, ts.URL, e.Key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("healthy put: status %d", resp.StatusCode)
	}
	if _, ok := cache.Peek(e.Key); !ok {
		t.Fatal("pushed entry not cached")
	}

	// Idempotent re-push.
	if resp := putEntry(t, ts.URL, e.Key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idempotent put: status %d", resp.StatusCode)
	}

	// Key mismatch is refused.
	other := healthyEntry(t, testMatrix(t, 2))
	if resp := putEntry(t, ts.URL, other.Key, data); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched key: status %d", resp.StatusCode)
	}

	// Corrupt bytes are refused.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if resp := putEntry(t, ts.URL, e.Key, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt entry: status %d", resp.StatusCode)
	}

	// Degraded plans never replicate.
	deg := healthyEntry(t, testMatrix(t, 3))
	deg.Perm = sparse.IdentityPerm(len(deg.Perm))
	deg.Reordered = false
	deg.K = 0
	deg.Degraded = true
	deg.DegradedReason = "requested: eigensolver did not converge"
	degData, err := plancache.EncodeEntry(deg)
	if err != nil {
		t.Fatal(err)
	}
	if resp := putEntry(t, ts.URL, deg.Key, degData); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("degraded entry: status %d", resp.StatusCode)
	}

	// Conflict: the canonical (lexicographically smaller) bytes win, in both
	// push directions.
	v2 := healthyEntry(t, testMatrix(t, 1))
	v2.K = 8 // same key, different bytes
	v2Data, err := plancache.EncodeEntry(v2)
	if err != nil {
		t.Fatal(err)
	}
	canonical, loser := data, v2Data
	if bytes.Compare(v2Data, data) < 0 {
		canonical, loser = v2Data, data
	}
	if resp := putEntry(t, ts.URL, e.Key, canonical); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("canonical push: status %d", resp.StatusCode)
	}
	if resp := putEntry(t, ts.URL, e.Key, loser); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("losing push: status %d", resp.StatusCode)
	}
	got, ok := cache.Peek(e.Key)
	if !ok {
		t.Fatal("entry lost in conflict resolution")
	}
	gotData, err := plancache.EncodeEntry(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, canonical) {
		t.Fatal("conflict resolution kept the non-canonical bytes")
	}
}

// TestStandaloneNodeRefusesCachePut: a server that does not self-heal does
// not serve the replica ingest, so no client can plant a plan under a
// matrix's key. The planted entry is a valid bijection whose bytes sort
// below the computed plan's, so an open ingest would adopt it as canonical.
func TestStandaloneNodeRefusesCachePut(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: PipelinePlan(bootes.Options{Seed: 1}), Cache: cache})
	m := testMatrix(t, 1)
	body := mmBody(t, m)
	computed := planOf(t, ts.URL, "", body)
	key := plancache.KeyCSR(m)
	stored, ok := cache.Peek(key)
	if !ok {
		t.Fatal("computed plan not cached")
	}
	storedData, err := plancache.EncodeEntry(stored)
	if err != nil {
		t.Fatal(err)
	}

	var planted []byte
	rng := rand.New(rand.NewSource(1))
	for try := 0; planted == nil; try++ {
		if try == 1000 {
			t.Fatal("no shuffled plan sorts below the computed one")
		}
		perm := make(sparse.Permutation, m.Rows)
		for i, v := range rng.Perm(m.Rows) {
			perm[i] = int32(v)
		}
		data, err := plancache.EncodeEntry(&plancache.Entry{Key: key, Perm: perm, Reordered: true, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Compare(data, storedData) < 0 {
			planted = data
		}
	}
	if resp := putEntry(t, ts.URL, key, planted); resp.StatusCode < 300 {
		t.Fatalf("standalone server accepted a cache put: status %d", resp.StatusCode)
	}
	got, ok := cache.Peek(key)
	if !ok {
		t.Fatal("computed plan left the cache")
	}
	if gotData, err := plancache.EncodeEntry(got); err != nil || !bytes.Equal(gotData, storedData) {
		t.Fatalf("cache entry changed by a refused put (%v)", err)
	}
	again := planOf(t, ts.URL, "", body)
	if !again.Cached || !slices.Equal(again.Perm, computed.Perm) {
		t.Fatalf("repeat answered cached=%v with a different plan than the one computed", again.Cached)
	}
}

// TestCacheDigestEndpoint pins the digest wire format: sorted keys and stats
// matching the cache index.
func TestCacheDigestEndpoint(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	for seed := int64(1); seed <= 3; seed++ {
		if err := cache.Put(healthyEntry(t, testMatrix(t, seed))); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/cache/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest status %d", resp.StatusCode)
	}
	var d antientropy.Digest
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 3 {
		t.Fatalf("digest has %d entries, want 3", len(d.Entries))
	}
	for i, de := range d.Entries {
		if i > 0 && d.Entries[i-1].Key >= de.Key {
			t.Fatal("digest not in ascending key order")
		}
		st, ok := cache.Stat(de.Key)
		if !ok || st.Size != de.Size || st.CRC != de.CRC {
			t.Fatalf("digest entry %q disagrees with cache stat: %+v vs %+v", de.Key, de, st)
		}
	}
}

// TestWarmingGatesReadyz: while warming, readyz is 503 (probes route around
// the node) but cache reads, digests, and pushes — the warm-up machinery
// itself — still serve; flipping warming off restores readiness.
func TestWarmingGatesReadyz(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, Heal: newHealer(t, cache)})

	s.SetWarming(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "warming" || !h.Warming {
		t.Fatalf("warming readyz = %d %+v", resp.StatusCode, h)
	}

	// The warm-up data plane stays open.
	e := healthyEntry(t, testMatrix(t, 1))
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if resp := putEntry(t, ts.URL, e.Key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cache put while warming: status %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/cache/digest"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("digest while warming: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	s.SetWarming(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after warm-up: status %d", resp.StatusCode)
	}
}

// TestStatszHealSection: with a healer configured, /statsz carries its
// counters under "Heal" (and the pinned-shape test asserts the key is absent
// without one).
func TestStatszHealSection(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, Heal: newHealer(t, cache)})
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	healRaw, ok := raw["Heal"]
	if !ok {
		t.Fatal("statsz missing Heal section with a healer configured")
	}
	var hs antientropy.Stats
	if err := json.Unmarshal(healRaw, &hs); err != nil {
		t.Fatal(err)
	}
	if hs != (antientropy.Stats{}) {
		t.Fatalf("idle healer reports non-zero stats: %+v", hs)
	}
}

// TestReplicateHookFires: a pipeline-computed plan announces its key through
// Config.Replicate exactly once; cache hits and peer fills do not.
func TestReplicateHookFires(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var replicated []string
	p := &countingPlanner{}
	_, ts := newTestServer(t, Config{
		Plan:      p.fn(),
		Cache:     cache,
		Replicate: func(key string) { replicated = append(replicated, key) },
	})
	m := testMatrix(t, 7)
	for i := 0; i < 2; i++ { // second request is a cache hit
		if resp, body := postPlan(t, ts.URL, mmBody(t, m), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if len(replicated) != 1 || replicated[0] != plancache.KeyCSR(m) {
		t.Fatalf("Replicate calls = %v, want exactly one for the computed key", replicated)
	}
}
