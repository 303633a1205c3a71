package planserve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"bootes/internal/plancache"
)

// sendReadByKey sends a fleet peer's read by key to url: a forwarded plan
// request with the key and row count and the given body, nil for none.
func sendReadByKey(t *testing.T, url, query, key string, rows int, body []byte, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	var src io.Reader
	if body != nil {
		src = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/plan"+query, src)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, "1")
	req.Header.Set(KeyHeader, key)
	req.Header.Set(RowsHeader, strconv.Itoa(rows))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

// TestReadByKeyAnswersAsAForwardedHit: a read by key for a cached plan gets
// the bytes a forwarded request carrying the body gets, and counts as it
// does; a read for a key with no plan asks for the body, is not this node's
// answer and spends no tenant token, so the body forward that follows is
// the one request the tenant pays for.
func TestReadByKeyAnswersAsAForwardedHit(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Plan: (&countingPlanner{make: keyedResult}).fn(), Cache: cache,
		Tenants: TenantConfig{Rate: 0.001, Burst: 2}})
	m := testMatrix(t, 1)
	body, key := mmBody(t, m), plancache.KeyCSR(m)
	tenant := map[string]string{"X-Tenant": "t", ForwardedHeader: "1"}

	resp, data := sendReadByKey(t, ts.URL, "?perm=1", key, m.Rows, nil, tenant)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(SendBodyHeader) == "" {
		t.Fatalf("read of an unplanned key: status %d, %s %q; want 404 asking for the body",
			resp.StatusCode, SendBodyHeader, resp.Header.Get(SendBodyHeader))
	}
	if st := s.Stats(); st.Served != 0 || st.TenantShed != 0 {
		t.Fatalf("a read that asked for the body counted %+v", st)
	}
	if resp, data := doPlan(t, ts.URL, "?perm=1", body, tenant); resp.StatusCode != http.StatusOK {
		t.Fatalf("the body forward after it: status %d: %s", resp.StatusCode, data)
	}
	_, withBody := doPlan(t, ts.URL, "?perm=1", body, map[string]string{ForwardedHeader: "1"})
	resp, data = sendReadByKey(t, ts.URL, "?perm=1", key, m.Rows, nil, tenant)
	if resp.StatusCode != http.StatusOK || data != withBody {
		t.Fatalf("read of a cached key: status %d\n got %s\nwant %s", resp.StatusCode, data, withBody)
	}
	if st := s.Stats(); st.Served != 3 || st.Cache.Hits != 2 {
		t.Errorf("after a miss, a hit with the body and a hit by key: served %d, cache hits %d; want 3 and 2",
			st.Served, st.Cache.Hits)
	}
	if hits, misses := memoCounts(s); hits != 1 || misses != 1 {
		t.Errorf("memo hits %d, misses %d: a read by key reads no body", hits, misses)
	}
	// The tenant's burst of 2 went to the body forward and the hit by key.
	if resp, _ := sendReadByKey(t, ts.URL, "", key, m.Rows, nil, tenant); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third paid request: status %d, want 429", resp.StatusCode)
	}
}

// TestForgedReadsByKey: a read by key is a lookup key and nothing more. A
// malformed key or row count is a 400 before any lookup or peer fill; a row
// count other than the cached plan's asks for the body without recording a
// verification violation; a read that carries a body is a 400; and a key
// header on a request that is not a forward is ignored.
func TestForgedReadsByKey(t *testing.T) {
	cache, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fills atomic.Int64
	s, ts := newTestServer(t, Config{Plan: (&countingPlanner{make: keyedResult}).fn(), Cache: cache,
		PeerFill: func(context.Context, string) (*plancache.Entry, bool) {
			fills.Add(1)
			return nil, false
		}})
	m, other := testMatrix(t, 1), testMatrix(t, 2)
	key := plancache.KeyCSR(m)
	planned := planOf(t, ts.URL, "", mmBody(t, m))
	fills.Store(0)
	before := cache.Stats()

	for _, tc := range []struct {
		name, key, rows string
	}{
		{"upper-case key", strings.ToUpper(key), "48"},
		{"short key", key[:63], "48"},
		{"path key", "../../" + key[6:], "48"},
		{"bad rows", key, "forty-eight"},
		{"negative rows", key, "-1"},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ForwardedHeader, "1")
		req.Header.Set(KeyHeader, tc.key)
		req.Header.Set(RowsHeader, tc.rows)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if st := cache.Stats(); st.Hits != before.Hits || st.Misses != before.Misses || fills.Load() != 0 {
		t.Errorf("malformed reads looked up the cache (%+v, was %+v) or peers (%d fills)", st, before, fills.Load())
	}

	resp, _ := sendReadByKey(t, ts.URL, "", key, m.Rows+1, nil, nil)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(SendBodyHeader) == "" {
		t.Errorf("read with another row count: status %d, want 404 asking for the body", resp.StatusCode)
	}
	if n := s.Stats().VerifyViolations; n != 0 {
		t.Errorf("a claimed row count recorded %d verification violations", n)
	}
	if resp, _ := sendReadByKey(t, ts.URL, "", key, m.Rows, mmBody(t, m), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("read by key with a body: status %d, want 400", resp.StatusCode)
	}
	if fills.Load() != 0 {
		t.Errorf("reads by key filled from peers %d times", fills.Load())
	}

	// Not a forward: the body is keyed here, whatever key the header claims.
	resp, data := doPlan(t, ts.URL, "", mmBody(t, other), map[string]string{KeyHeader: key, RowsHeader: "48"})
	if resp.StatusCode != http.StatusOK || !strings.Contains(data, plancache.KeyCSR(other)) || strings.Contains(data, planned.Key) {
		t.Errorf("client request with a key header: status %d: %s; want the plan of its own body", resp.StatusCode, data)
	}
}

// TestCachePutRefusesKeyOutsideCacheDir: the replica ingest refuses a key
// that is not a plan key, here one ServeMux unescapes to ../../escaped,
// before it reads the entry, so nothing is written outside the cache
// directory.
func TestCachePutRefusesKeyOutsideCacheDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	cache, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Plan: (&countingPlanner{}).fn(), Cache: cache, Heal: newHealer(t, cache)})
	e := healthyEntry(t, testMatrix(t, 1))
	e.Key = "../../escaped"
	data, err := plancache.EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if resp := putEntry(t, ts.URL, "..%2F..%2Fescaped", data); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT of key ../../escaped: status %d, want 400", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(root, "escaped"+plancache.Ext)); !os.IsNotExist(err) {
		t.Errorf("an entry was written outside the cache directory (stat: %v)", err)
	}
	resp, err := http.Get(ts.URL + "/v1/cache/..%2F..%2Fescaped")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET of key ../../escaped: status %d, want 400", resp.StatusCode)
	}
}
