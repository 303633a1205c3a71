package planserve

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/sparse"
)

// maxPresize caps the buffer readRequestBody allocates from a declared
// Content-Length before the bytes arrive: a header claiming 256 MB costs at
// most this much until the body actually delivers more. It is also the
// largest pooled buffer.
const maxPresize = 1 << 20

// Body buffers are pooled in power-of-two size classes from 512 bytes, where
// a body without a declared length starts, to maxPresize.
const (
	minClassShift = 9
	maxClassShift = 20
)

var bodyPools [maxClassShift - minClassShift + 1]sync.Pool

// bodyClass is the pool index of the smallest size class that holds size
// bytes, or -1 past maxPresize.
func bodyClass(size int64) int {
	if size > maxPresize {
		return -1
	}
	return max(bits.Len64(uint64(size-1)), minClassShift) - minClassShift
}

// Body is a request body read into one buffer that is shared by reference
// count and returned to its size class's pool by the last Release. Each
// holder that reads the bytes holds its own reference: the handler that read
// them, until it has digested or parsed them, and each forward of them to a
// peer, through a NewReader that net/http closes when it is done, which may
// be after the handler returned. A reference dropped early would let a later
// request overwrite bytes still being read, so releasing one twice panics; a
// reference never dropped costs only a pool miss, because its buffer is then
// collected like any other.
type Body struct {
	b      []byte  // the bytes, valid while a reference is held
	pooled *[]byte // the buffer's pool slot; nil when not pooled
	class  int
	refs   atomic.Int32
	held   *atomic.Int64 // the reading server's outstanding references
}

// newBody returns an empty body with room for size bytes, holding one
// reference, which held counts.
func newBody(size int64, held *atomic.Int64) *Body {
	body := &Body{class: bodyClass(size), held: held}
	if body.class < 0 {
		body.b = make([]byte, 0, maxPresize)
	} else {
		p, ok := bodyPools[body.class].Get().(*[]byte)
		if !ok {
			b := make([]byte, 0, 1<<(minClassShift+body.class))
			p = &b
		}
		body.pooled, body.b = p, (*p)[:0]
	}
	body.refs.Store(1)
	held.Add(1)
	return body
}

// Len returns the body's length in bytes.
func (b *Body) Len() int { return len(b.b) }

// Retain takes another reference. The caller must already hold one: a body
// whose last reference is gone may be in another request's hands.
func (b *Body) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("planserve: Retain of a released request body")
	}
	b.held.Add(1)
}

// Release drops one reference; the last returns a pooled buffer for reuse.
func (b *Body) Release() {
	switch n := b.refs.Add(-1); {
	case n < 0:
		panic("planserve: request body released more often than retained")
	case n == 0:
		if b.pooled != nil {
			bodyPools[b.class].Put(b.pooled)
		}
		b.b, b.pooled = nil, nil
	}
	b.held.Add(-1)
}

// NewReader returns a reader over the body's bytes that holds a reference of
// its own until its first Close. A forward hands it to net/http as the
// request body, and net/http closes a request body once it is done with it,
// even on errors and even after the round trip returned, so a peer still
// being written to keeps its bytes.
func (b *Body) NewReader() io.ReadCloser {
	b.Retain()
	return &bodyReader{body: b}
}

// errBodyClosed is what a Read after Close returns.
var errBodyClosed = errors.New("planserve: read of a closed request body")

// bodyReader reads a Body through its own reference. Read and Close
// serialize, so a Close from one goroutine never releases the bytes under a
// Read in progress on another.
type bodyReader struct {
	body *Body

	mu     sync.Mutex
	off    int
	closed bool
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errBodyClosed
	}
	if r.off >= r.body.Len() {
		return 0, io.EOF
	}
	n := copy(p, r.body.b[r.off:])
	r.off += n
	return n, nil
}

// Close drops the reader's reference; closing again is a no-op.
func (r *bodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.body.Release()
	}
	return nil
}

// readRequestBody reads r's body whole into one buffer presized from its
// Content-Length: a pooled buffer of the smallest size class that holds the
// declared length plus one byte, or past maxPresize an unpooled one capped at
// maxPresize. Past its capacity, or without a declared length, the buffer
// grows as bytes arrive, and a grown buffer is never pooled. A body declared
// or received longer than limit bytes is an *http.MaxBytesError. The
// returned body holds one reference, the caller's, which held counts.
func readRequestBody(r *http.Request, limit int64, held *atomic.Int64) (*Body, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(512) // no declared length: start small, as io.ReadAll does
	if r.ContentLength >= 0 {
		// The spare byte lets the read that reports EOF land without growing
		// the buffer.
		size = r.ContentLength + 1
	}
	body := newBody(size, held)
	src := io.LimitReader(r.Body, limit+1)
	for {
		n, err := src.Read(body.b[len(body.b):cap(body.b)])
		body.b = body.b[:len(body.b)+n]
		if int64(len(body.b)) > limit {
			body.Release()
			return nil, &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			body.Release()
			return nil, err
		}
		if len(body.b) == cap(body.b) {
			body.b = append(body.b, 0)[:len(body.b)]
			body.pooled = nil // a grown buffer is never pooled
		}
	}
}

// memoEntries bounds a bodyMemo. An entry is a 32-byte digest, a 64-byte hex
// key and a row count: a full memo holds about 0.8 MB of heap.
const memoEntries = 4096

// bodyMemo maps the SHA-256 of a plan-request body to the plan key and row
// count that parsing it produced, so a byte-identical resubmission resolves
// without a parse or a KeyCSR. The digest is cryptographic because the first
// body to claim one decides the key every later sender of it gets: a crafted
// collision would otherwise serve one client another client's plan. Only
// bodies that parsed are recorded, and the memo lives in memory, so a restart
// or a parser change starts it empty. When full, recording drops an arbitrary
// entry; eviction can only turn a later hit into a parse.
type bodyMemo struct {
	hits, misses *obs.Counter

	mu      sync.Mutex
	entries map[[sha256.Size]byte]memoEntry
}

type memoEntry struct {
	key  string
	rows int
}

// newBodyMemo returns an empty memo that counts its hits and misses on the
// given counters.
func newBodyMemo(hits, misses *obs.Counter) *bodyMemo {
	return &bodyMemo{hits: hits, misses: misses, entries: make(map[[sha256.Size]byte]memoEntry)}
}

// resolve returns the plan key and row count of the matrix body encodes.
// Bytes the memo has seen are answered from it, with a nil m; any other body
// is parsed with sparse.ReadBody, recorded if it parses, and returned as m.
func (mm *bodyMemo) resolve(body []byte) (key string, rows int, m *sparse.CSR, err error) {
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
