// Package plancache is a crash-safe persistent cache of Bootes reordering
// plans, keyed by a content hash of the matrix's CSR structure.
//
// Durability model: one file per entry (<key><Ext>), published through
// atomicio's temp-file + fsync + atomic-rename protocol, each carrying a
// format version and a CRC32 over its payload. A kill -9 at any instant
// leaves every entry either fully present or fully absent; Open never fails
// on a damaged directory — corrupt or truncated entries are quarantined
// (renamed aside with QuarantineSuffix, preserving the bytes for postmortem)
// and counted, stray temp files from interrupted writes are removed, and
// service continues with the surviving entries.
package plancache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"bootes/internal/plancache/atomicio"
	"bootes/internal/planverify"
)

const (
	// Ext is the entry file extension.
	Ext = ".plan"
	// QuarantineSuffix is appended to undecodable entry files instead of
	// deleting them: the bytes stay available for diagnosis while the name
	// no longer matches the entry scan.
	QuarantineSuffix = ".quarantine"
)

// Stats counts cache activity since Open.
type Stats struct {
	// Entries is the current number of loadable entries.
	Entries int
	// Hits / Misses count Get outcomes; Puts counts successful writes.
	Hits, Misses, Puts int64
	// WriteErrors counts failed Puts (the cache stays consistent: a failed
	// write publishes nothing).
	WriteErrors int64
	// Quarantined counts entries set aside as corrupt, at Open or on Get.
	Quarantined int64
}

// EntryStat is the cheap per-entry summary the anti-entropy digest exchange
// is built on: the encoded entry's size and payload CRC32, recorded when the
// entry was loaded or written — Stat never re-encodes or touches disk.
type EntryStat struct {
	// Size is the encoded entry's on-disk length in bytes.
	Size int64
	// CRC is the IEEE CRC32 over the entry's payload, exactly the checksum
	// the on-disk container carries — two replicas holding byte-identical
	// entries report equal CRCs with no decode.
	CRC uint32
}

// Cache is a concurrency-safe persistent plan cache. The in-memory index
// mirrors the directory: every loadable entry is held decoded (plans are a
// few bytes per matrix row), so Get never touches disk after Open.
type Cache struct {
	dir string

	mu      sync.RWMutex
	entries map[string]*Entry
	meta    map[string]EntryStat
	stats   Stats
}

// Open loads (or creates) a cache directory. Corrupt entries are quarantined,
// not fatal; leftover atomicio temp files are removed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, entries: make(map[string]*Entry), meta: make(map[string]EntryStat)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.Contains(name, atomicio.TempSuffix) {
			// An interrupted write never published; its temp is garbage.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, Ext) {
			continue
		}
		path := filepath.Join(dir, name)
		key := strings.TrimSuffix(name, Ext)
		e, st, err := loadEntry(path, key)
		if err != nil {
			c.quarantine(path)
			continue
		}
		c.entries[key] = e
		c.meta[key] = st
	}
	c.stats.Entries = len(c.entries)
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// loadEntry reads and decodes one entry file, cross-checking the embedded
// key against the filename so a file copied under the wrong name cannot
// serve another matrix's plan.
func loadEntry(path, key string) (*Entry, EntryStat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, EntryStat{}, err
	}
	e, err := DecodeEntry(data)
	if err != nil {
		return nil, EntryStat{}, err
	}
	if e.Key != key {
		return nil, EntryStat{}, fmt.Errorf("%w: entry key %q under filename key %q", ErrCorrupt, e.Key, key)
	}
	return e, statOf(data), nil
}

// statOf derives an entry's digest summary from its encoded bytes: the
// container's own payload CRC (header bytes 12..16, already validated by
// DecodeEntry on every load path) and the total encoded length.
func statOf(data []byte) EntryStat {
	st := EntryStat{Size: int64(len(data))}
	if len(data) >= 16 {
		st.CRC = binary.LittleEndian.Uint32(data[12:16])
	}
	return st
}

// quarantine renames a damaged entry aside. Callers hold no lock on the
// stats counter path; Open is single-threaded and Get locks before calling.
func (c *Cache) quarantine(path string) {
	_ = os.Rename(path, path+QuarantineSuffix)
	c.stats.Quarantined++
}

// Get returns the cached entry for key, or (nil, false).
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return e, ok
}

// Peek returns the cached entry for key without touching the hit/miss
// counters: the fleet's peer-fill endpoint reads through Peek so sibling
// traffic does not distort this node's own cache-health statistics.
func (c *Cache) Peek(key string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[key]
	return e, ok
}

// Put durably stores e under e.Key: the entry is verified (see below),
// encoded, written through the atomic protocol, and only then published to
// the in-memory index, so readers never observe an entry the disk does not
// durably hold. A write failure leaves both disk and index unchanged.
//
// Verification is always on: the permutation must be a bijection, K a
// candidate cluster count, and degraded plans are rejected outright — a
// degraded plan reflects the moment's faults, not the matrix, and must never
// be replayed from cache. The encoded bytes must additionally decode and
// re-encode bit-identically, so what the cache persists is provably exactly
// what a future Open will serve. Violations are counted by planverify and
// fail the Put without touching disk.
func (c *Cache) Put(e *Entry) error {
	if e.Key == "" {
		return fmt.Errorf("plancache: empty key")
	}
	if err := planverify.CachePut(e.Perm, e.K, e.Reordered, e.Degraded, e.DegradedReason); err != nil {
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return fmt.Errorf("plancache: rejecting entry %.12s: %w", e.Key, err)
	}
	data, err := EncodeEntry(e)
	if err != nil {
		return err
	}
	if err := checkReencode(data); err != nil {
		planverify.Record(planverify.SiteCachePut,
			planverify.Violation{Code: planverify.CodeReencodeMismatch, Detail: err.Error()})
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return fmt.Errorf("plancache: rejecting entry %.12s: %w", e.Key, err)
	}
	path := filepath.Join(c.dir, e.Key+Ext)
	if err := atomicio.WriteFileBytes(path, data); err != nil {
		c.mu.Lock()
		c.stats.WriteErrors++
		c.mu.Unlock()
		return err
	}
	c.mu.Lock()
	if _, existed := c.entries[e.Key]; !existed {
		c.stats.Entries++
	}
	c.entries[e.Key] = e
	c.meta[e.Key] = statOf(data)
	c.stats.Puts++
	c.mu.Unlock()
	return nil
}

// PutCanonical is Put for a copy of an entry received from another replica:
// it stores e unless the cache already holds an entry for e.Key whose
// encoding is canonical against e's. Of two encodings of one key's entry the
// lexicographically smaller byte string is canonical. Every replica applies
// this one rule to every copy it receives, whether pushed or pulled, so a
// replica set converges on one entry whichever side repairs first. It
// reports whether e was stored.
func (c *Cache) PutCanonical(e *Entry) (bool, error) {
	if local, ok := c.Peek(e.Key); ok {
		localData, err := EncodeEntry(local)
		if err != nil {
			return false, err
		}
		data, err := EncodeEntry(e)
		if err != nil {
			return false, err
		}
		if bytes.Compare(localData, data) <= 0 {
			return false, nil
		}
	}
	return true, c.Put(e)
}

// checkReencode holds the codec to the bit-identity invariant: the encoded
// entry must decode and encode back to exactly the same bytes. A mismatch
// means the codec would persist something it cannot faithfully reproduce —
// caught here, before the write, instead of as quarantine at the next Open.
func checkReencode(data []byte) error {
	decoded, err := DecodeEntry(data)
	if err != nil {
		return fmt.Errorf("encoded entry does not decode: %w", err)
	}
	again, err := EncodeEntry(decoded)
	if err != nil {
		return fmt.Errorf("decoded entry does not re-encode: %w", err)
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("entry does not re-encode bit-identically (%d vs %d bytes)", len(data), len(again))
	}
	return nil
}

// Keys returns the keys of every loadable entry, in ascending lexicographic
// order. The order is part of the contract: the anti-entropy digest exchange
// diffs sorted key lists across replicas, and tests rely on determinism.
func (c *Cache) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Stat returns the encoded size and payload CRC32 recorded when key's entry
// was loaded or written — a digest-cheap summary with no decode and no disk
// access. The CRC matches the on-disk container's own checksum, so equal
// Stat values across replicas mean byte-identical entries.
func (c *Cache) Stat(key string) (EntryStat, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.meta[key]
	return st, ok
}

// Delete removes key's entry from disk and the index. Used by the
// anti-entropy repair loop to drop entries this node no longer owns after a
// ring change. Deleting an absent key is a no-op.
func (c *Cache) Delete(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return nil
	}
	if err := os.Remove(filepath.Join(c.dir, key+Ext)); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(c.entries, key)
	delete(c.meta, key)
	c.stats.Entries--
	return nil
}

// Scrub re-reads key's entry from disk and holds it to the full decode
// invariants (CRC, structure, key match) plus bit-agreement with the index's
// recorded stat. A failure quarantines the file, evicts the entry from the
// index, and returns the decode error — the caller (the anti-entropy
// scrubber) then repairs from a peer. Scrubbing an unindexed key is a no-op.
func (c *Cache) Scrub(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return nil
	}
	path := filepath.Join(c.dir, key+Ext)
	evict := func() {
		c.quarantine(path)
		delete(c.entries, key)
		delete(c.meta, key)
		c.stats.Entries--
	}
	_, st, err := loadEntry(path, key)
	if err != nil {
		evict()
		return fmt.Errorf("plancache: scrub %.12s: %w", key, err)
	}
	if want := c.meta[key]; st != want {
		// Decodable but not the bytes this process published — a swapped or
		// stale file is as untrustworthy as a corrupt one.
		evict()
		return fmt.Errorf("%w: scrub %.12s: on-disk stat %+v differs from index %+v", ErrCorrupt, key, st, want)
	}
	return nil
}

// Len returns the number of loadable entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
