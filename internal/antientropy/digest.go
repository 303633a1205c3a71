// Package antientropy is the fleet's self-healing layer: it keeps every
// replica set of the content-addressed plan cache converged without operator
// action, so a crashed, restarted, or bit-rotted node returns to its exact
// owned key set instead of waiting for traffic to repopulate it.
//
// A fresh plan is pushed synchronously to the up members of its replica set
// (Healer.Replicate). A replica that misses the push, because it was down
// or the push failed, gets nothing parked for it: it pulls the entry
// itself. Three mechanisms, all bounded, converge what replication missed:
//
//   - Digest exchange + repair: every node serves GET /v1/cache/digest — a
//     sorted key → (size, CRC32) summary of its cache — and a repair loop
//     diffs the local index against each peer's digest, pulling missing
//     entries through the verified /v1/cache/{key} fill path and dropping
//     entries the ring no longer assigns to this node.
//   - Warm-up on join / push on drain: a starting node runs the same
//     missing-key pull against its current replicas before readiness flips;
//     a draining node pushes its entries to the surviving replicas before
//     the listener closes.
//   - Scrubbing: a low-rate pass re-reads local entries from disk, routes
//     CRC/decode failures through quarantine, and repairs from peers.
//
// Convergence argument: every entry is content-addressed and verified on
// every transfer, so repair can only move a replica toward holding the same
// bytes as its peers. When two replicas hold decodable-but-different bytes
// for one key, both sides adopt the lexicographically smaller encoded byte
// string — a symmetric, deterministic rule, so the replica set converges to
// one canonical entry no matter which side repairs first. Each repair round
// strictly shrinks the diff (missing keys are pulled, divergent keys adopt
// the canonical bytes, unowned keys are handed off then dropped), so a
// quiescent fleet reaches digest equality in O(1) rounds per disturbance.
package antientropy

import (
	"sort"

	"bootes/internal/plancache"
)

// DigestEntry is one key's summary in a cache digest: enough to detect a
// missing or divergent replica without transferring or decoding the entry.
type DigestEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
}

// Digest is the GET /v1/cache/digest payload: every cached key's summary in
// ascending key order (the order plancache.Keys guarantees).
type Digest struct {
	Entries []DigestEntry `json:"entries"`
}

// DigestOf summarizes a cache, in ascending key order.
func DigestOf(c *plancache.Cache) Digest {
	keys := c.Keys()
	d := Digest{Entries: make([]DigestEntry, 0, len(keys))}
	for _, k := range keys {
		if st, ok := c.Stat(k); ok {
			d.Entries = append(d.Entries, DigestEntry{Key: k, Size: st.Size, CRC: st.CRC})
		}
	}
	return d
}

// Diff is the repair work implied by comparing a local cache against one
// peer's digest, under an ownership predicate.
type Diff struct {
	// Missing keys appear in the peer's digest, are owned locally, and are
	// absent from the local cache: pull them.
	Missing []string
	// Divergent keys are present on both sides with different (size, CRC):
	// fetch the peer's bytes and adopt whichever copy is canonical.
	Divergent []string
	// NotOwned keys are held locally but no longer assigned to this node by
	// the ring: hand them to their owners, then drop them.
	NotOwned []string
}

// ComputeDiff compares the local cache against a peer digest. owns reports
// whether the ring assigns a key to this node. The same function decides
// what the repair loop pulls and what it drops, and backs the ring-churn
// agreement test, so what the tests prove about ring movement is exactly
// what the healer will do. A peer's key not of plancache.KeyCSR's shape is
// ignored: a digest is network input.
func ComputeDiff(c *plancache.Cache, peer Digest, owns func(key string) bool) Diff {
	var d Diff
	for _, pe := range peer.Entries {
		if !plancache.ValidKey(pe.Key) || !owns(pe.Key) {
			continue
		}
		st, ok := c.Stat(pe.Key)
		switch {
		case !ok:
			d.Missing = append(d.Missing, pe.Key)
		case st.Size != pe.Size || st.CRC != pe.CRC:
			d.Divergent = append(d.Divergent, pe.Key)
		}
	}
	for _, k := range c.Keys() {
		if !owns(k) {
			d.NotOwned = append(d.NotOwned, k)
		}
	}
	sort.Strings(d.Missing)
	sort.Strings(d.Divergent)
	sort.Strings(d.NotOwned)
	return d
}
