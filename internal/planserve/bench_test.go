package planserve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bootes/internal/plancache"
	"bootes/internal/workloads"
)

// hotHitBody is a 768-row k-NN graph as Matrix Market text, 211 574 bytes,
// shaped like a hot-fleet request.
func hotHitBody(tb testing.TB) []byte {
	return mmBody(tb, workloads.KNNGraph(workloads.Params{Rows: 768, Cols: 768, Density: 0.05, Seed: 1}))
}

// BenchmarkHotHit is a repeat request through the handler: a server with a
// warm plan cache answers the same Matrix Market body, hotHitBody's
// 211 574 bytes, with its cached plan. The summary case leaves the
// permutation out; the perm case asks for it (?perm=1), as every hot-fleet
// request does.
func BenchmarkHotHit(b *testing.B) {
	body := hotHitBody(b)
	cache, err := plancache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Plan: (&countingPlanner{}).fn(), Cache: cache, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan"+query, bytes.NewReader(body)))
		return rec
	}
	for i := 0; i < 2; i++ {
		if rec := serve(""); rec.Code != http.StatusOK || (i == 1) != strings.Contains(rec.Body.String(), `"cached":true`) {
			b.Fatalf("warm-up request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	for _, bc := range []struct{ name, query string }{{"summary", ""}, {"perm", "?perm=1"}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve(bc.query)
			}
		})
	}
}
