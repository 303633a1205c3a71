package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
)

// minBeyond is how many samples must lie above a reported percentile for it
// to be trusted: p90 needs at least 100 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// how many samples lie beyond it; it is trusted when beyond >= minBeyond.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n - rank
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tally counts attempted and failed requests, failures by reason. A failure
// is anything that did not produce a correct plan; wrong answers (a served
// plan that is not a bijection, or a hit that differs from its miss) are
// also counted separately, since they make the run incorrect.
type tally struct {
	attempted, failed, wrong int
	reasons                  map[string]int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string, wrong bool) {
	t.attempted++
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for r, n := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[r] += n
	}
}

// failFrac is failed over attempted; an empty tally has failed nothing.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// parseExposition reads Prometheus text exposition into series → value. A
// series is keyed by its name with its label set exactly as exposed
// (`bootes_cache_hits_total`, `bootes_similarity_mode_total{mode="exact"}`).
// Comment lines are skipped; a sample line that does not parse is an error.
func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] += v
	}
	return out, sc.Err()
}

// family sums every series of the metric family name.
func family(series map[string]float64, name string) float64 {
	var sum float64
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns after − before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Traffic-model parameters. elemBytes is planverify's default element cost.
// The cache is planverify's 1 MiB default scaled down by 16: the benchmark's
// matrices are small enough to run a hundred plans in a run, and under a
// 1 MiB cache almost all of them fit whole, so every order would model the
// same traffic. trafficCacheDefault is planverify's own setting, reported
// beside the metric.
const (
	elemBytes           = 12
	trafficCache        = 64 << 10
	trafficCacheDefault = 1 << 20
)

// trafficSum accumulates modelled B bytes under the served permutations and
// under identity order.
type trafficSum struct{ permuted, identity int64 }

func (s *trafficSum) add(m *sparse.CSR, perm sparse.Permutation, cacheBytes int64) error {
	b := m
	if m.Rows != m.Cols {
		b = sparse.Transpose(m)
	}
	base, err := trafficmodel.EstimateB(m, b, cacheBytes, elemBytes)
	if err != nil {
		return err
	}
	with, err := trafficmodel.EstimateBWithPerm(m, b, perm, cacheBytes, elemBytes)
	if err != nil {
		return err
	}
	s.identity += base.BTraffic
	s.permuted += with.BTraffic
	return nil
}

func (s trafficSum) ratio() float64 {
	if s.identity == 0 {
		return 1
	}
	return float64(s.permuted) / float64(s.identity)
}
