package antientropy

import (
	"os"
	"path/filepath"
	"testing"

	"bootes/internal/plancache"
	"bootes/internal/sparse"
)

// spoolEntry builds a valid encoded entry under an arbitrary filename-safe
// key (the spool never decodes the plan's matrix, only the container).
func spoolEntry(t *testing.T, key string, rows int) []byte {
	t.Helper()
	perm := make(sparse.Permutation, rows)
	for i := range perm {
		perm[i] = int32(rows - 1 - i)
	}
	data, err := plancache.EncodeEntry(&plancache.Entry{Key: key, Perm: perm, Reordered: true, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHintStoreRoundTrip(t *testing.T) {
	defer func(n int) { maxHintsPerPeer = n }(maxHintsPerPeer)
	maxHintsPerPeer = 2
	h := &hintStore{dir: t.TempDir()}
	peer := "http://127.0.0.1:9999"

	if ks, err := h.keys(peer); err != nil || len(ks) != 0 {
		t.Fatalf("fresh spool keys = %v, %v", ks, err)
	}
	if h.pending() != 0 {
		t.Fatal("fresh spool pending != 0")
	}

	dataB := spoolEntry(t, "bbb", 8)
	dataA := spoolEntry(t, "aaa", 8)
	for _, kv := range []struct {
		k string
		d []byte
	}{{"bbb", dataB}, {"aaa", dataA}} {
		stored, err := h.put(peer, kv.k, kv.d)
		if err != nil || !stored {
			t.Fatalf("put %s = (%v, %v)", kv.k, stored, err)
		}
	}

	// Replay order is deterministic: ascending key, regardless of park order.
	ks, err := h.keys(peer)
	if err != nil || len(ks) != 2 || ks[0] != "aaa" || ks[1] != "bbb" {
		t.Fatalf("keys = %v, %v", ks, err)
	}
	if got := h.pending(); got != 2 {
		t.Fatalf("pending = %d", got)
	}
	if ps, err := h.peers(); err != nil || len(ps) != 1 || ps[0] != peer {
		t.Fatalf("peers = %v, %v", ps, err)
	}

	// The per-peer bound refuses the third hint without error.
	if stored, err := h.put(peer, "ccc", spoolEntry(t, "ccc", 8)); err != nil || stored {
		t.Fatalf("over-bound put = (%v, %v), want dropped", stored, err)
	}

	// Load validates; a corrupt hint is deleted, not delivered.
	if data, err := h.load(peer, "aaa"); err != nil || len(data) == 0 {
		t.Fatalf("load = %v", err)
	}
	hintPath := filepath.Join(h.peerDir(peer), "bbb"+hintExt)
	raw, err := os.ReadFile(hintPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(hintPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := h.load(peer, "bbb"); err == nil {
		t.Fatal("corrupt hint loaded")
	}
	if _, err := os.Stat(hintPath); !os.IsNotExist(err) {
		t.Fatal("corrupt hint not deleted")
	}

	h.remove(peer, "aaa")
	if h.pending() != 0 {
		t.Fatalf("pending after remove = %d", h.pending())
	}

	// Hints nest inside the cache directory without confusing the entry scan:
	// plancache.Open skips subdirectories.
	cacheDir := t.TempDir()
	h2 := &hintStore{dir: filepath.Join(cacheDir, "hints")}
	if _, err := h2.put(peer, "ddd", spoolEntry(t, "ddd", 8)); err != nil {
		t.Fatal(err)
	}
	c, err := plancache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("hint spool leaked into the cache index")
	}
	if h2.pending() != 1 {
		t.Fatal("cache open disturbed the spool")
	}
}
