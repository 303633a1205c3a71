package planserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bootes/internal/obs"
	"bootes/internal/plancache"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// keyedResult is a healthy plan whose permutation depends on m's structure,
// not only its row count: a rotation by an offset taken from m's key.
func keyedResult(m *sparse.CSR, _ int) (*reorder.Result, error) {
	shift := 1 + int(plancache.KeyCSR(m)[0])%(m.Rows-1)
	perm := make(sparse.Permutation, m.Rows)
	for i := range perm {
		perm[i] = int32((i + shift) % m.Rows)
	}
	return &reorder.Result{Perm: perm, Reordered: true, Extra: map[string]float64{"k": 8}}, nil
}

// planOf posts body and decodes the 200 answer, permutation included.
func planOf(t *testing.T, url, query string, body []byte) PlanResponse {
	t.Helper()
	resp, data := doPlan(t, url, "?perm=1"+query, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal([]byte(data), &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// memoCounts reads a server memo's hit and miss counters.
func memoCounts(s *Server) (hits, misses int64) {
	return s.memo.hits.Value(), s.memo.misses.Value()
}

func newTestMemo() *bodyMemo {
	reg := obs.NewRegistry()
	return newBodyMemo(reg.Counter("bootes_test_memo_hits_total", "Hits."), reg.Counter("bootes_test_memo_misses_total", "Misses."))
}

func memoLen(mm *bodyMemo) int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.entries)
}

// TestMemoAnswersRepeatBody: a byte-identical resubmission resolves from the
// memo, without a parse, to the same cached answer; a body one comment line
// longer is parsed and resolves to the same key; an unparseable body is a 400
// every time and never recorded.
func TestMemoAnswersRepeatBody(t *testing.T) {
	p := &countingPlanner{make: keyedResult}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	m := testMatrix(t, 1)
	body := mmBody(t, m)

	first := planOf(t, ts.URL, "", body)
	if h, mi := memoCounts(s); h != 0 || mi != 1 {
		t.Fatalf("first sighting: memo hits %d misses %d, want 0 and 1", h, mi)
	}
	again := planOf(t, ts.URL, "", body)
	if h, mi := memoCounts(s); h != 1 || mi != 1 {
		t.Fatalf("resubmission: memo hits %d misses %d, want 1 and 1", h, mi)
	}
	if !again.Cached || again.Key != first.Key || again.Rows != m.Rows || !slices.Equal(again.Perm, first.Perm) {
		t.Fatalf("resubmission answered %+v, want the first answer %+v from cache", again, first)
	}

	// One added comment line: different bytes, same matrix.
	nl := bytes.IndexByte(body, '\n') + 1
	commented := append(append(append([]byte(nil), body[:nl]...), "% resubmitted\n"...), body[nl:]...)
	edited := planOf(t, ts.URL, "", commented)
	if h, mi := memoCounts(s); h != 1 || mi != 2 {
		t.Fatalf("edited body: memo hits %d misses %d, want 1 and 2", h, mi)
	}
	if edited.Key != first.Key || !edited.Cached || !slices.Equal(edited.Perm, first.Perm) {
		t.Fatalf("edited body answered key %.12s (cached %v), want the cached %.12s", edited.Key, edited.Cached, first.Key)
	}
	if n := p.totalRuns(); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1", n)
	}

	for i := 0; i < 2; i++ {
		if resp, data := doPlan(t, ts.URL, "", []byte("not a matrix"), nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage body, try %d: status %d (%s), want 400", i, resp.StatusCode, data)
		}
	}
	if h, mi := memoCounts(s); h != 1 || mi != 4 || memoLen(s.memo) != 2 {
		t.Fatalf("after garbage: memo hits %d misses %d entries %d, want 1, 4 and 2", h, mi, memoLen(s.memo))
	}
}

// TestMemoHitWithoutUsablePlanReplans: after a memo hit whose cache entry is
// gone, or fails verification for the memo's row count, the request is parsed
// and planned, and gets the permutation a fresh server gives it.
func TestMemoHitWithoutUsablePlanReplans(t *testing.T) {
	m := testMatrix(t, 5)
	body := mmBody(t, m)
	key := plancache.KeyCSR(m)
	_, fresh := newTestServer(t, Config{Plan: (&countingPlanner{make: keyedResult}).fn()})
	want := planOf(t, fresh.URL, "", body).Perm

	p := &countingPlanner{make: keyedResult}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache})
	planOf(t, ts.URL, "", body)
	for _, tc := range []struct {
		name  string
		spoil func() error
	}{
		{"missing", func() error { return cache.Delete(key) }},
		// A valid plan for a 10-row matrix: Put accepts it, the serve path's
		// check against the memo's row count must not.
		{"wrong rows", func() error { return cache.Put(&plancache.Entry{Key: key, Perm: sparse.IdentityPerm(10)}) }},
	} {
		name := tc.name
		if err := tc.spoil(); err != nil {
			t.Fatal(err)
		}
		runs := p.runsFor(key)
		hits, _ := memoCounts(s)
		pr := planOf(t, ts.URL, "", body)
		if h, _ := memoCounts(s); h != hits+1 {
			t.Fatalf("%s: request did not resolve from the memo", name)
		}
		if pr.Cached || p.runsFor(key) != runs+1 || pr.Key != key || !slices.Equal(pr.Perm, want) {
			t.Fatalf("%s: answered key %.12s cached %v after %d plans, want a fresh plan of %.12s with the fresh server's permutation",
				name, pr.Key, pr.Cached, p.runsFor(key)-runs, key)
		}
	}
}

// TestPathRequestsBypassMemo: a ?path= request parses its file every time,
// since the file can change between two identical requests, and neither
// consults nor fills the memo.
func TestPathRequestsBypassMemo(t *testing.T) {
	p := &countingPlanner{make: keyedResult}
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: p.fn(), Cache: cache, AllowLocalPaths: true})
	path := filepath.Join(t.TempDir(), "m.mtx")
	for i, m := range []*sparse.CSR{testMatrix(t, 1), testMatrix(t, 1), testMatrix(t, 2)} {
		if err := os.WriteFile(path, mmBody(t, m), 0o644); err != nil {
			t.Fatal(err)
		}
		pr := planOf(t, ts.URL, "&path="+path, nil)
		if pr.Key != plancache.KeyCSR(m) || pr.Cached != (i == 1) {
			t.Fatalf("request %d: key %.12s cached %v, want the file's current key %.12s", i, pr.Key, pr.Cached, plancache.KeyCSR(m))
		}
	}
	if h, mi := memoCounts(s); h != 0 || mi != 0 || memoLen(s.memo) != 0 {
		t.Fatalf("path requests touched the memo: hits %d misses %d entries %d", h, mi, memoLen(s.memo))
	}
}

// TestPathReadsEitherFormatWhateverItsName: a ?path= file is decoded by its
// content, BCSR or Matrix Market, not by its extension.
func TestPathReadsEitherFormatWhateverItsName(t *testing.T) {
	p := &countingPlanner{make: keyedResult}
	_, ts := newTestServer(t, Config{Plan: p.fn(), AllowLocalPaths: true})
	m := testMatrix(t, 3)
	var bin bytes.Buffer
	if err := sparse.WriteBinary(&bin, m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"bin.bcsr": bin.Bytes(), "bin.mtx": bin.Bytes(), "bin": bin.Bytes(),
		"text.mtx": mmBody(t, m), "text.bcsr": mmBody(t, m),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if pr := planOf(t, ts.URL, "&path="+path, nil); pr.Key != plancache.KeyCSR(m) {
			t.Errorf("%s: key %.12s, want %.12s", name, pr.Key, plancache.KeyCSR(m))
		}
	}
}

// TestBodyMemoBounded: more distinct bodies than the memo holds leave it at
// its cap, and every body still resolves to its own key.
func TestBodyMemoBounded(t *testing.T) {
	mm := newTestMemo()
	for i := 0; i < memoEntries+64; i++ {
		n := 1 + i%7
		body := []byte(fmt.Sprintf("%%%%MatrixMarket matrix coordinate pattern general\n%% body %d\n%d %d 1\n1 %d\n", i, n, n, n))
		key, rows, m, err := mm.resolve(body)
		if err != nil || m == nil || rows != n || key != plancache.KeyCSR(m) {
			t.Fatalf("body %d: resolved (%.12s, %d, parsed %v, %v)", i, key, rows, m != nil, err)
		}
		if l := memoLen(mm); l > memoEntries {
			t.Fatalf("memo holds %d entries after %d bodies, cap %d", l, i+1, memoEntries)
		}
	}
}

// TestBodyMemoConcurrent resolves one shared body and per-goroutine bodies
// from several goroutines at once (run under -race by make race-serve); every
// answer must be the body's own key and row count.
func TestBodyMemoConcurrent(t *testing.T) {
	mm := newTestMemo()
	shared := testMatrix(t, 1)
	bodies := [][]byte{mmBody(t, shared)}
	mats := []*sparse.CSR{shared}
	for g := int64(0); g < 8; g++ {
		m := testMatrix(t, 10+g)
		bodies, mats = append(bodies, mmBody(t, m)), append(mats, m)
	}
	var wg sync.WaitGroup
	for g := 1; g < len(bodies); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := g * (i % 2) // alternate the shared body and this goroutine's own
				key, rows, _, err := mm.resolve(bodies[j])
				if err != nil || key != plancache.KeyCSR(mats[j]) || rows != mats[j].Rows {
					t.Errorf("goroutine %d: body %d resolved to (%.12s, %d, %v)", g, j, key, rows, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l := memoLen(mm); l != len(bodies) {
		t.Fatalf("memo holds %d entries, want %d", l, len(bodies))
	}
}

// TestReadRequestBody pins the body read: the limit (413 material, whatever
// the Content-Length says or leaves out), an allocation up front that a
// declared length cannot push past maxPresize, and a reference count that
// every outcome leaves at zero once the caller releases what it was given.
func TestReadRequestBody(t *testing.T) {
	req := func(body string, declared int64) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", io.NopCloser(strings.NewReader(body)))
		r.ContentLength = declared
		return r
	}
	var held atomic.Int64
	read := func(r *http.Request, limit int64) (string, int, error) {
		t.Helper()
		b, err := readRequestBody(r, limit, &held)
		if err != nil {
			if b != nil || held.Load() != 0 {
				t.Fatalf("a failed read returned %v and left %d references held", b, held.Load())
			}
			return "", 0, err
		}
		s, c := string(b.b), cap(b.b)
		b.Release()
		if n := held.Load(); n != 0 {
			t.Fatalf("%d references held after the only one was released", n)
		}
		return s, c, nil
	}
	for _, tc := range []struct {
		body     string
		declared int64
		tooBig   bool
	}{
		{"0123456789", 10, false},
		{"0123456789", -1, false},
		{"0123456789a", 11, true},
		{"0123456789a", -1, true},
		{"0", 1 << 30, true}, // refused on the header alone
	} {
		b, _, err := read(req(tc.body, tc.declared), 10)
		var mbe *http.MaxBytesError
		if got := errors.As(err, &mbe); got != tc.tooBig || (!tc.tooBig && (err != nil || b != tc.body)) {
			t.Errorf("%d bytes declared %d: got %q, %v; want too-big %v", len(tc.body), tc.declared, b, err, tc.tooBig)
		}
		if mbe != nil && mbe.Limit != 10 {
			t.Errorf("MaxBytesError limit %d, want 10", mbe.Limit)
		}
	}

	b, c, err := read(req("0123456789", 64<<20), 256<<20)
	if err != nil || b != "0123456789" {
		t.Fatalf("short body under a 64 MiB header: %q, %v", b, err)
	}
	if c > maxPresize {
		t.Errorf("a 64 MiB header reserved %d bytes for a 10-byte body, cap %d", c, maxPresize)
	}
	body := strings.Repeat("x", 3*maxPresize)
	if b, _, err := read(req(body, int64(len(body))), 256<<20); err != nil || b != body {
		t.Fatalf("a body past the presize cap read back %d bytes, %v", len(b), err)
	}
}
