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

// BenchmarkHotHit is a repeat request through the handler: a server with a
// warm plan cache answers the same Matrix Market body, a 768-row k-NN graph
// of about 300 KB shaped like a hot-fleet request, with its cached plan.
func BenchmarkHotHit(b *testing.B) {
	body := mmBody(b, workloads.KNNGraph(workloads.Params{Rows: 768, Cols: 768, Density: 0.05, Seed: 1}))
	cache, err := plancache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Plan: (&countingPlanner{}).fn(), Cache: cache, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		return rec
	}
	for i := 0; i < 2; i++ {
		if rec := serve(); rec.Code != http.StatusOK || (i == 1) != strings.Contains(rec.Body.String(), `"cached":true`) {
			b.Fatalf("warm-up request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
