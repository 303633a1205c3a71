package fleet

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"bootes/internal/planserve"
	"bootes/internal/workloads"
)

// BenchmarkForwardedHit is a repeat ?perm=1 request sent via the non-owner
// of a 2-node LaunchCluster, for a plan the owner has cached: the body is
// BenchmarkHotHit's (internal/planserve), a 768-row k-NN graph as 211 574
// bytes of Matrix Market text. It times the whole hop, client to entry node
// to owner and back; B/op and allocs/op count the client and both nodes.
func BenchmarkForwardedHit(b *testing.B) {
	body := mmBody(b, workloads.KNNGraph(workloads.Params{Rows: 768, Cols: 768, Density: 0.05, Seed: 1}))
	if len(body) != 211574 {
		b.Fatalf("the body is %d bytes, want BenchmarkHotHit's 211 574", len(body))
	}
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		CacheDir: b.TempDir(),
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	owner := c.Nodes[0].Router().Ring().Owner(keyMust(b, body))
	via := c.Nodes[0].URL
	if via == owner {
		via = c.Nodes[1].URL
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	send := func() {
		resp, err := client.Post(via+"/v1/plan?perm=1", "text/plain", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != owner {
			b.Fatalf("status %d served by %q, want 200 from the owner", resp.StatusCode, resp.Header.Get(ServedByHeader))
		}
	}
	for i := 0; i < 3; i++ {
		send() // the first plans; the rest warm both nodes' memos and pools
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkForwardedMiss is BenchmarkForwardedHit's request for a matrix no
// node has planned: each op POSTs, with ?perm=1 and via the non-owner, the
// Matrix Market text of a k-NN graph of a fresh seed (768 rows, density
// 0.05, about 211 KB), which the owner reads, digests, parses, peer-fills
// in vain from the entry node, plans with a stub pipeline and caches. It
// times the whole hop of a fleet-wide miss; building the next body and
// finding its owner is not timed.
func BenchmarkForwardedMiss(b *testing.B) {
	c, err := LaunchCluster(2, NodeConfig{
		Serve:    planserve.Config{Plan: countingPlan(new(atomic.Int64))},
		CacheDir: b.TempDir(),
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	type request struct {
		body       []byte
		via, owner string
	}
	next := func(seed int64) request {
		body := mmBody(b, workloads.KNNGraph(workloads.Params{Rows: 768, Cols: 768, Density: 0.05, Seed: seed}))
		owner := c.Nodes[0].Router().Ring().Owner(keyMust(b, body))
		via := c.Nodes[0].URL
		if via == owner {
			via = c.Nodes[1].URL
		}
		return request{body, via, owner}
	}
	send := func(rq request) {
		resp, err := client.Post(rq.via+"/v1/plan?perm=1", "text/plain", bytes.NewReader(rq.body))
		if err != nil {
			b.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(ServedByHeader) != rq.owner || bytes.Contains(data, []byte(`"cached":true`)) {
			b.Fatalf("status %d served by %q, want an uncached 200 from the owner", resp.StatusCode, resp.Header.Get(ServedByHeader))
		}
	}
	seed := int64(1000)
	for i := 0; i < 3; i++ {
		seed++
		send(next(seed)) // warm both nodes' connections and pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seed++
		rq := next(seed)
		b.StartTimer()
		send(rq)
	}
}
