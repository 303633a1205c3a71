package antientropy

import (
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bootes/internal/plancache"
	"bootes/internal/plancache/atomicio"
)

// hintExt is the hint file extension. A hint file holds the raw encoded
// entry (the same CRC-checked BPLN container the cache stores), so a hint is
// self-validating: replay decodes and verifies it exactly like a peer fill.
const hintExt = ".hint"

// hintStore parks writes destined for a down replica under
// <dir>/<base64url(peerURL)>/<key>.hint, published through atomicio so a
// crash mid-park leaves no torn hint. Hints survive restarts — a node that
// crashes with parked hints delivers them after it comes back.
type hintStore struct {
	dir string
}

// maxHintsPerPeer bounds parked hints per peer; beyond it new hints are
// dropped (counted by the healer) — anti-entropy repair is the backstop for
// what the spool will not hold. A variable only so a test can shrink it.
var maxHintsPerPeer = 1024

// peerDir maps a peer URL to its spool directory. Base64url because peer
// URLs contain characters ("/", ":") that must not introduce path structure.
func (h *hintStore) peerDir(peer string) string {
	return filepath.Join(h.dir, base64.URLEncoding.EncodeToString([]byte(peer)))
}

// put parks one entry for peer. Returns (false, nil) when the per-peer bound
// is reached and the hint was dropped.
func (h *hintStore) put(peer, key string, data []byte) (bool, error) {
	dir := h.peerDir(peer)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	n, err := h.count(peer)
	if err != nil {
		return false, err
	}
	if n >= maxHintsPerPeer {
		return false, nil
	}
	return true, atomicio.WriteFileBytes(filepath.Join(dir, key+hintExt), data)
}

// keys lists the parked hint keys for peer, sorted — replay order is
// deterministic (ascending key), which the design doc documents: hints carry
// idempotent content-addressed entries, so order affects nothing but is
// pinned anyway for reproducible tests.
func (h *hintStore) keys(peer string) ([]string, error) {
	des, err := os.ReadDir(h.peerDir(peer))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.Contains(name, atomicio.TempSuffix) || !strings.HasSuffix(name, hintExt) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, hintExt))
	}
	sort.Strings(out)
	return out, nil
}

// load reads and validates one parked hint. A hint that no longer decodes
// (disk fault while parked) is deleted rather than delivered.
func (h *hintStore) load(peer, key string) ([]byte, error) {
	path := filepath.Join(h.peerDir(peer), key+hintExt)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, err := plancache.DecodeEntry(data)
	if err != nil {
		_ = os.Remove(path)
		return nil, fmt.Errorf("antientropy: corrupt hint %.12s for %s: %w", key, peer, err)
	}
	if e.Key != key {
		_ = os.Remove(path)
		return nil, fmt.Errorf("antientropy: hint %.12s for %s holds entry %.12s", key, peer, e.Key)
	}
	return data, nil
}

// remove deletes a delivered hint.
func (h *hintStore) remove(peer, key string) {
	_ = os.Remove(filepath.Join(h.peerDir(peer), key+hintExt))
}

// peers lists every peer with at least one parked hint.
func (h *hintStore) peers() ([]string, error) {
	des, err := os.ReadDir(h.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		raw, err := base64.URLEncoding.DecodeString(de.Name())
		if err != nil {
			continue // not a spool directory
		}
		if ks, err := h.keys(string(raw)); err == nil && len(ks) > 0 {
			out = append(out, string(raw))
		}
	}
	sort.Strings(out)
	return out, nil
}

// pending counts parked hints across all peers (the gauge view).
func (h *hintStore) pending() int64 {
	var n int64
	peers, err := h.peers()
	if err != nil {
		return 0
	}
	for _, p := range peers {
		ks, err := h.keys(p)
		if err != nil {
			continue
		}
		n += int64(len(ks))
	}
	return n
}

// count counts parked hints for one peer.
func (h *hintStore) count(peer string) (int, error) {
	ks, err := h.keys(peer)
	return len(ks), err
}
