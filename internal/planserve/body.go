package planserve

import (
	"crypto/sha256"
	"io"
	"net/http"
	"sync"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/sparse"
)

// maxPresize caps the buffer ReadRequestBody allocates from a declared
// Content-Length before the bytes arrive: a header claiming 256 MB costs at
// most this much until the body actually delivers more.
const maxPresize = 1 << 20

// ReadRequestBody reads r's body whole into one buffer presized from its
// Content-Length, capped at maxPresize; past the cap, or without a declared
// length, the buffer grows as bytes arrive. A body declared or received
// longer than limit bytes is an *http.MaxBytesError.
func ReadRequestBody(r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(512) // no declared length: start small, as io.ReadAll does
	if r.ContentLength >= 0 {
		// The spare byte lets the read that reports EOF land without growing
		// the buffer.
		size = r.ContentLength + 1
	}
	b := make([]byte, 0, min(size, maxPresize))
	body := io.LimitReader(r.Body, limit+1)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return nil, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// memoEntries bounds a BodyMemo. An entry is a 32-byte digest, a 64-byte hex
// key and a row count: a full memo holds about 0.8 MB of heap.
const memoEntries = 4096

// BodyMemo maps the SHA-256 of a plan-request body to the plan key and row
// count that parsing it produced, so a byte-identical resubmission resolves
// without a parse or a KeyCSR. The digest is cryptographic because the first
// body to claim one decides the key every later sender of it gets: a crafted
// collision would otherwise serve one client another client's plan. Only
// bodies that parsed are recorded, and the memo lives in memory, so a restart
// or a parser change starts it empty. When full, recording drops an arbitrary
// entry; eviction can only turn a later hit into a parse.
type BodyMemo struct {
	hits, misses *obs.Counter

	mu      sync.Mutex
	entries map[[sha256.Size]byte]memoEntry
}

type memoEntry struct {
	key  string
	rows int
}

// NewBodyMemo returns an empty memo that counts its hits and misses on the
// given counters.
func NewBodyMemo(hits, misses *obs.Counter) *BodyMemo {
	return &BodyMemo{hits: hits, misses: misses, entries: make(map[[sha256.Size]byte]memoEntry)}
}

// Resolve returns the plan key and row count of the matrix body encodes.
// Bytes the memo has seen are answered from it, with a nil m; any other body
// is parsed with sparse.ReadBody, recorded if it parses, and returned as m.
func (mm *BodyMemo) Resolve(body []byte) (key string, rows int, m *sparse.CSR, err error) {
	digest := sha256.Sum256(body)
	mm.mu.Lock()
	e, ok := mm.entries[digest]
	mm.mu.Unlock()
	if ok {
		mm.hits.Inc()
		return e.key, e.rows, nil, nil
	}
	mm.misses.Inc()
	if m, err = sparse.ReadBody(body); err != nil {
		return "", 0, nil, err
	}
	key = plancache.KeyCSR(m)
	mm.mu.Lock()
	if len(mm.entries) >= memoEntries {
		for d := range mm.entries {
			delete(mm.entries, d)
			break
		}
	}
	mm.entries[digest] = memoEntry{key, m.Rows}
	mm.mu.Unlock()
	return key, m.Rows, m, nil
}
