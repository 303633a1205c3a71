package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		q       float64
		want    float64
		trusted bool
	}{
		{100, 0.9, 90, true},  // 10 samples above the 90th
		{99, 0.9, 90, false},  // only 9 above
		{200, 0.9, 180, true}, // 20 above
		{20, 0.5, 10, true},   // 10 above the median
		{19, 0.5, 10, false},
		{1, 0.9, 1, false},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.q)
		if trusted := beyond >= minBeyond; got != c.want || trusted != c.trusted {
			t.Errorf("percentile(1..%d, %g) = %g, %d beyond; want %g, trusted %v", c.n, c.q, got, beyond, c.want, c.trusted)
		}
	}
	if _, beyond := percentile(nil, 0.5); beyond >= minBeyond {
		t.Error("an empty sample is trusted")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTallyFailFrac(t *testing.T) {
	var a tally
	if a.failFrac() != 0 {
		t.Fatalf("empty tally fail_frac = %g", a.failFrac())
	}
	a.ok()
	a.ok()
	a.fail("status 503", false)
	var b tally
	b.ok()
	b.fail("hit permutation differs from its miss", true)
	b.fail("status 503", false)
	a.add(b)
	if a.attempted != 6 || a.failed != 3 || a.wrong != 1 {
		t.Fatalf("attempted/failed/wrong = %d/%d/%d, want 6/3/1", a.attempted, a.failed, a.wrong)
	}
	if got := a.failFrac(); got != 0.5 {
		t.Errorf("fail_frac = %g, want 0.5", got)
	}
	if a.reasons["status 503"] != 2 || a.reasons["hit permutation differs from its miss"] != 1 {
		t.Errorf("reasons = %v", a.reasons)
	}
}

const exposition = `# HELP bootes_cache_hits_total Plan cache hits.
# TYPE bootes_cache_hits_total counter
bootes_cache_hits_total 12
bootes_cache_misses_total 3
bootes_similarity_mode_total{mode="bitset"} 4
bootes_similarity_mode_total{mode="exact"} 5
bootes_serve_latency_seconds_bucket{outcome="ok",le="+Inf"} 15
bootes_serve_latency_seconds_sum{outcome="ok"} 0.25

bootes_fleet_ring_nodes 3
`

func TestParseExposition(t *testing.T) {
	m, err := parseExposition(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if m["bootes_cache_hits_total"] != 12 || m[`bootes_similarity_mode_total{mode="exact"}`] != 5 {
		t.Errorf("parsed %v", m)
	}
	if got := m[`bootes_serve_latency_seconds_bucket{outcome="ok",le="+Inf"}`]; got != 15 {
		t.Errorf("bucket = %g, want 15", got)
	}
	if got := family(m, "bootes_similarity_mode_total"); got != 9 {
		t.Errorf("family sum = %g, want 9", got)
	}
	// A family name that prefixes another must not absorb it.
	if got := family(m, "bootes_cache_hits"); got != 0 {
		t.Errorf("prefix family sum = %g, want 0", got)
	}
	before := map[string]float64{"bootes_cache_hits_total": 10}
	if d := delta(before, m); d["bootes_cache_hits_total"] != 2 || d["bootes_cache_misses_total"] != 3 {
		t.Errorf("delta = %v", d)
	}
	if _, err := parseExposition(strings.NewReader("bootes_cache_hits_total twelve\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestTrafficRatio(t *testing.T) {
	w, _ := workloadByName("cold-sparse")
	ms, err := corpus(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := decode(ms[0].body)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int32, a.Rows)
	for i := range identity {
		identity[i] = int32(i)
	}
	var s trafficSum
	if err := s.add(a, identity, trafficCache); err != nil {
		t.Fatal(err)
	}
	if r := s.ratio(); math.Abs(r-1) > 1e-12 {
		t.Errorf("identity order ratio = %g, want 1", r)
	}
}
