package planserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"bootes/internal/leakcheck"
	"bootes/internal/plancache"
	"bootes/internal/planqueue"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// TestBodyReferencesSettleOnEveryPath: however a plan request ends, it
// leaves no reference to its body held: a miss and a hit, a body without a
// Content-Length, one past the largest pooled class, the 413 refusals (on
// the header and mid-read), the 400s (an unparseable body, and a bad header
// once the body was read), an async submission, a ?path= request, and a
// fleet peer's read by key, whether it hits, asks for the body or wrongly
// carries one.
func TestBodyReferencesSettleOnEveryPath(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newAsyncServer(t, Config{Plan: (&countingPlanner{}).fn(), Cache: cache, MaxUploadBytes: 4 << 20, AllowLocalPaths: true}, planqueue.Config{})
	body := mmBody(t, testMatrix(t, 1))
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	byKey := func(m *sparse.CSR) map[string]string {
		return map[string]string{ForwardedHeader: "1", KeyHeader: plancache.KeyCSR(m), RowsHeader: strconv.Itoa(m.Rows)}
	}
	tooBig := bytes.Repeat([]byte("%"), 5<<20)
	large := mmBody(t, workloads.KNNGraph(workloads.Params{Rows: 2048, Cols: 2048, Density: 0.05, Seed: 1}))
	if len(large) <= maxPresize {
		t.Fatalf("a %d-byte body is not past the largest pooled class", len(large))
	}
	for _, tc := range []struct {
		name, query string
		body        []byte
		hdr         map[string]string
		chunked     bool
		want        int
	}{
		{"miss", "?perm=1", body, nil, false, http.StatusOK},
		{"hit", "?perm=1", body, nil, false, http.StatusOK},
		{"chunked", "?perm=1", mmBody(t, testMatrix(t, 3)), nil, true, http.StatusOK},
		{"over 1 MiB", "", large, nil, false, http.StatusOK},
		{"413 declared", "", tooBig, nil, false, http.StatusRequestEntityTooLarge},
		{"413 chunked", "", tooBig, nil, true, http.StatusRequestEntityTooLarge},
		{"400 body", "", []byte("not a matrix"), nil, false, http.StatusBadRequest},
		{"400 deadline", "", mmBody(t, testMatrix(t, 4)), map[string]string{"X-Deadline": "soon"}, false, http.StatusBadRequest},
		{"async", "?async=1", mmBody(t, testMatrix(t, 2)), nil, false, http.StatusAccepted},
		{"path", "?path=" + path, nil, nil, false, http.StatusOK},
		{"read by key, hit", "?perm=1", nil, byKey(testMatrix(t, 1)), false, http.StatusOK},
		{"read by key, miss", "", nil, byKey(testMatrix(t, 5)), false, http.StatusNotFound},
		{"read by key with a body", "", body, byKey(testMatrix(t, 1)), false, http.StatusBadRequest},
	} {
		var src io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			src = io.MultiReader(src) // a reader net/http cannot size
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan"+tc.query, src)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range tc.hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if err := leakcheck.SettleZero("body references", s.BodyRefs); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestBodyReleaseMisusePanics: a reference released twice, or taken on a
// body whose last reference is gone, panics instead of handing a buffer in
// use to the next request. A reader's second Close is a no-op, because
// net/http may close a request body more than once.
func TestBodyReleaseMisusePanics(t *testing.T) {
	var held atomic.Int64
	b := newBody(100, &held)
	r := b.NewReader()
	if held.Load() != 2 {
		t.Fatalf("%d references held by a body and its reader, want 2", held.Load())
	}
	r.Close()
	r.Close()
	if _, err := r.Read(make([]byte, 1)); err == nil {
		t.Error("a closed reader read without an error")
	}
	b.Release()
	if held.Load() != 0 {
		t.Fatalf("%d references held after every holder let go", held.Load())
	}
	mustPanic(t, "a second release", b.Release)
	mustPanic(t, "a retain after the last release", newReleased(&held).Retain)
}

func newReleased(held *atomic.Int64) *Body {
	b := newBody(100, held)
	b.Release()
	return b
}

// TestBodyClasses pins the pool's size classes: powers of two from 512
// bytes to maxPresize, nothing past it.
func TestBodyClasses(t *testing.T) {
	for _, tc := range []struct {
		size  int64
		class int
	}{
		{1, 0}, {512, 0}, {513, 1}, {211575, 9}, {maxPresize, 11}, {maxPresize + 1, -1},
	} {
		if got := bodyClass(tc.size); got != tc.class {
			t.Errorf("bodyClass(%d) = %d, want %d", tc.size, got, tc.class)
		}
	}
	var held atomic.Int64
	b := newBody(211575, &held)
	defer b.Release()
	if c := cap(b.b); c != 256<<10 {
		t.Errorf("a 211 575-byte body got a %d-byte buffer, want 256 KiB", c)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a measurement of
// the handler sees the handler's allocations alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestHotHitAllocatesLittle: a repeat ?perm=1 request for a 212 KB Matrix
// Market body, answered from the cache, allocates far less than its body:
// the body is read into a pooled buffer and the permutation is written from
// the entry's kept encoding.
func TestHotHitAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	body := hotHitBody(t)
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Plan: (&countingPlanner{}).fn(), Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/plan?perm=1", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		clear(w.h)
		s.Handler().ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if s.cfg.Cache.Len() != 1 {
		t.Fatalf("the warm-up cached %d plans, want 1", s.cfg.Cache.Len())
	}
	const hits = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("%d-byte body: %d bytes allocated per hit", len(body), perHit)
	if perHit > 32<<10 {
		t.Errorf("a hot hit allocated %d bytes, want at most 32 KiB for a %d-byte body", perHit, len(body))
	}
}

// encoded is what json.Encoder writes for v.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHitResponseMatchesEncoder: a cache hit's response, written from the
// entry's kept permutation encoding, is byte for byte what json.Encoder
// writes for the same PlanResponse, with and without peerFilled and
// coalesced; so is a hit through the handler.
func TestHitResponseMatchesEncoder(t *testing.T) {
	s, err := New(Config{Plan: (&countingPlanner{}).fn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	e := &plancache.Entry{Key: "k<&>", Perm: []int32{3, 0, 2, 1, 10, 4, 5, 6, 7, 8, 9}, Reordered: true, K: 8,
		DegradedReason: "a <reason> & more", PreprocessSeconds: 0.0125, FootprintBytes: 1 << 20}
	for _, peerFilled := range []bool{false, true} {
		for _, coalesced := range []bool{false, true} {
			resp := planResponseFromEntry(e)
			resp.PeerFilled = peerFilled
			rec := httptest.NewRecorder()
			s.respond(rec, httptest.NewRequest(http.MethodPost, "/v1/plan?perm=1", nil), resp, e, coalesced, "")
			want := planResponseFromEntry(e)
			want.Cached, want.PeerFilled, want.Coalesced = true, peerFilled, coalesced
			if got, w := rec.Body.Bytes(), encoded(t, want); !bytes.Equal(got, w) {
				t.Errorf("peerFilled %v, coalesced %v:\n got %s\nwant %s", peerFilled, coalesced, got, w)
			}
		}
	}

	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: (&countingPlanner{make: keyedResult}).fn(), Cache: cache})
	m := testMatrix(t, 4)
	body := mmBody(t, m)
	doPlan(t, ts.URL, "?perm=1", body, nil)
	_, got := doPlan(t, ts.URL, "?perm=1", body, nil)
	hit, ok := cache.Get(plancache.KeyCSR(m))
	if !ok {
		t.Fatal("the miss cached no plan")
	}
	want := planResponseFromEntry(hit)
	want.Cached = true
	if w := encoded(t, want); got != string(w) {
		t.Errorf("a hit through the handler:\n got %s\nwant %s", got, w)
	}
}

// TestConcurrentHitsShareOneEncoding: many ?perm=1 hits on one entry whose
// encoding nobody has built yet all answer the same bytes (run under -race
// by make race-serve: the first hits race to build it).
func TestConcurrentHitsShareOneEncoding(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Plan: (&countingPlanner{make: keyedResult}).fn(), Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	body := mmBody(t, testMatrix(t, 5))
	serve := func(query string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan"+query, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	serve("") // plans and caches it, without the permutation
	var wg sync.WaitGroup
	answers := make([][]byte, 8)
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if b := serve("?perm=1"); answers[g] == nil {
					answers[g] = b
				} else if !bytes.Equal(b, answers[g]) {
					t.Errorf("goroutine %d: hit %d answered differently", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range answers {
		if !bytes.Equal(answers[g], answers[0]) || !bytes.Contains(answers[g], []byte(`"perm":[`)) {
			t.Fatalf("goroutine %d answered %s, goroutine 0 %s", g, answers[g], answers[0])
		}
	}
}
