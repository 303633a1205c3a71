package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bootes/internal/sparse"
)

// blobs generates n points around k well-separated centers; returns points
// and ground-truth labels.
func blobs(rng *rand.Rand, n, k, dim int, sep float64) ([]float64, []int) {
	centers := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			centers[c*dim+d] = float64(c) * sep * float64(d%2*2-1+2) // spread out
		}
		centers[c*dim] = float64(c) * sep
	}
	pts := make([]float64, n*dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		labels[i] = c
		for d := 0; d < dim; d++ {
			pts[i*dim+d] = centers[c*dim+d] + rng.NormFloat64()*0.3
		}
	}
	return pts, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, k, dim := 300, 4, 3
	pts, truth := blobs(rng, n, k, dim, 10)
	res, err := KMeans(pts, n, dim, KMeansOptions{K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// All points with the same ground-truth label must share a cluster, and
	// different labels must differ (up to cluster relabelling).
	mapping := map[int]int32{}
	for i := 0; i < n; i++ {
		want, seen := mapping[truth[i]]
		if !seen {
			mapping[truth[i]] = res.Assign[i]
			continue
		}
		if res.Assign[i] != want {
			t.Fatalf("point %d: cluster %d, expected %d (label %d)", i, res.Assign[i], want, truth[i])
		}
	}
	distinct := map[int32]struct{}{}
	for _, c := range mapping {
		distinct[c] = struct{}{}
	}
	if len(distinct) != k {
		t.Errorf("recovered %d distinct clusters, want %d", len(distinct), k)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, dim := 200, 2
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = rng.Float64() * 100
	}
	var prev float64 = 1e300
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KMeans(pts, n, dim, KMeansOptions{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.001 {
			t.Errorf("inertia increased at k=%d: %v > %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansErrors(t *testing.T) {
	pts := []float64{1, 2, 3, 4}
	if _, err := KMeans(pts, 2, 2, KMeansOptions{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := KMeans(pts, 2, 2, KMeansOptions{K: 3}); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := KMeans(pts, 3, 2, KMeansOptions{K: 2}); err == nil {
		t.Error("bad length accepted")
	}
	if _, err := KMeans(nil, 0, 2, KMeansOptions{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, dim := 100, 2
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = rng.NormFloat64()
	}
	a, err := KMeans(pts, n, dim, KMeansOptions{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, n, dim, KMeansOptions{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clustering")
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	// Degenerate input: all points identical. Must terminate and assign.
	n, dim := 50, 2
	pts := make([]float64, n*dim)
	res, err := KMeans(pts, n, dim, KMeansOptions{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %v, want 0", res.Inertia)
	}
}

func TestPermutationFromAssignmentGroupsClusters(t *testing.T) {
	assign := []int32{1, 0, 1, 0, 2}
	perm := PermutationFromAssignment(assign, 3, nil, 0, OrderClusterID)
	if err := perm.Validate(5); err != nil {
		t.Fatalf("invalid perm: %v", err)
	}
	// Rows of the same cluster must be contiguous.
	seen := map[int32]bool{}
	last := int32(-1)
	for _, old := range perm {
		c := assign[old]
		if c != last {
			if seen[c] {
				t.Fatalf("cluster %d split in permutation %v", c, perm)
			}
			seen[c] = true
			last = c
		}
	}
	// OrderClusterID keeps cluster ids ascending.
	if assign[perm[0]] != 0 || assign[perm[4]] != 2 {
		t.Errorf("cluster order wrong: %v", perm)
	}
}

func TestPermutationFromAssignmentFiedler(t *testing.T) {
	// Two clusters; embedding column 1 (Fiedler) reverses within-cluster and
	// cluster order.
	assign := []int32{0, 0, 1, 1}
	dim := 2
	embedding := []float64{
		0, 5, // row 0, fiedler 5
		0, 4, // row 1, fiedler 4
		0, -1, // row 2, fiedler -1
		0, -2, // row 3, fiedler -2
	}
	perm := PermutationFromAssignment(assign, 2, embedding, dim, OrderFiedler)
	if err := perm.Validate(4); err != nil {
		t.Fatal(err)
	}
	want := sparse.Permutation{3, 2, 1, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestPermutationFromAssignmentAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(8)
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(k))
		}
		dim := k
		emb := make([]float64, n*dim)
		for i := range emb {
			emb[i] = rng.NormFloat64()
		}
		for _, order := range []PermutationOrder{OrderFiedler, OrderClusterID} {
			perm := PermutationFromAssignment(assign, k, emb, dim, order)
			if perm.Validate(n) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
