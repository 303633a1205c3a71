package trafficmodel

import (
	"container/list"
	"math/rand"
	"testing"

	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func block(seed int64) *sparse.CSR {
	return workloads.ScrambledBlock(workloads.Params{
		Rows: 1024, Cols: 1024, Density: 0.01, Seed: seed, Groups: 8,
	})
}

func TestEstimateBounds(t *testing.T) {
	a := block(1)
	est, err := EstimateB(a, a, 8<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if est.BTraffic < est.BCompulsory {
		t.Errorf("traffic %d below compulsory %d", est.BTraffic, est.BCompulsory)
	}
	if est.Hits+est.Misses != a.NNZ() {
		t.Errorf("events %d != nnz %d", est.Hits+est.Misses, a.NNZ())
	}
	if est.Ratio() < 1 {
		t.Errorf("ratio %v below 1", est.Ratio())
	}
}

func TestUnboundedCacheHitsCompulsory(t *testing.T) {
	a := block(2)
	est, err := EstimateB(a, a, 1<<40, 12)
	if err != nil {
		t.Fatal(err)
	}
	if est.BTraffic != est.BCompulsory {
		t.Errorf("unbounded cache traffic %d != compulsory %d", est.BTraffic, est.BCompulsory)
	}
}

func TestIdentityPermMatchesPlain(t *testing.T) {
	a := block(3)
	plain, err := EstimateB(a, a, 8<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	id, err := EstimateBWithPerm(a, a, sparse.IdentityPerm(a.Rows), 8<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BTraffic != id.BTraffic || plain.Hits != id.Hits {
		t.Error("identity permutation changed the estimate")
	}
}

func TestPermutedEstimateMatchesMaterialized(t *testing.T) {
	// EstimateBWithPerm(a, perm) must equal EstimateB(permute(a)).
	a := block(4)
	perm := sparse.IdentityPerm(a.Rows)
	// Reverse order.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	viaPerm, err := EstimateBWithPerm(a, a, perm, 8<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := sparse.PermuteRows(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := EstimateB(ap, a, 8<<10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if viaPerm.BTraffic != materialized.BTraffic {
		t.Errorf("perm view %d != materialized %d", viaPerm.BTraffic, materialized.BTraffic)
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := EstimateB(sparse.Zero(2, 3), sparse.Zero(4, 4), 1024, 12); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := EstimateBWithPerm(sparse.Zero(2, 2), sparse.Zero(2, 2), sparse.Permutation{0}, 1024, 12); err == nil {
		t.Error("bad permutation accepted")
	}
}

func TestHugeRowStreamsThrough(t *testing.T) {
	// One B row larger than the cache must not evict everything forever:
	// it streams and others stay resident.
	rows := [][]int32{{0}, {1}, {0}, {1}}
	a, err := sparse.FromRows(4, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	// B: row 0 is huge (500 entries ⇒ 6000 bytes), row 1 tiny.
	bRows := make([][]int32, 2)
	for c := int32(0); c < 500; c++ {
		bRows[0] = append(bRows[0], c)
	}
	bRows[1] = []int32{0}
	b, err := sparse.FromRows(2, 500, bRows)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateB(a, b, 4096, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 fetched twice (streams), row 1 once (stays resident).
	want := int64(2*500*12 + 1*12)
	if est.BTraffic != want {
		t.Errorf("traffic %d, want %d", est.BTraffic, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	z := sparse.Zero(3, 3)
	est, err := EstimateB(z, z, 1024, 12)
	if err != nil {
		t.Fatal(err)
	}
	if est.BTraffic != 0 || est.Ratio() != 0 {
		t.Error("empty input produced traffic")
	}
}

// listEstimate is the reference model: the same row-granular LRU kept in a
// container/list, which allocates an element on every miss.
func listEstimate(a, b *sparse.CSR, perm sparse.Permutation, capacityBytes, elemBytes int64) Estimate {
	var est Estimate
	rowBytes := make([]int64, b.Rows)
	for k := 0; k < b.Rows; k++ {
		rowBytes[k] = (b.RowPtr[k+1] - b.RowPtr[k]) * elemBytes
	}
	referenced := make([]bool, b.Rows)
	for _, k := range a.Col {
		if !referenced[k] {
			referenced[k] = true
			est.BCompulsory += rowBytes[k]
		}
	}
	lru := list.New()
	elem := make([]*list.Element, b.Rows)
	var resident int64
	for _, oldRow := range perm {
		for _, k := range a.Row(int(oldRow)) {
			if e := elem[k]; e != nil {
				lru.MoveToFront(e)
				est.Hits++
				continue
			}
			est.Misses++
			est.BTraffic += rowBytes[k]
			if rowBytes[k] >= capacityBytes {
				continue
			}
			resident += rowBytes[k]
			elem[k] = lru.PushFront(k)
			for resident > capacityBytes {
				back := lru.Back()
				victim := back.Value.(int32)
				lru.Remove(back)
				elem[victim] = nil
				resident -= rowBytes[victim]
			}
		}
	}
	return est
}

// TestMatchesListReference: the index-linked LRU gives the list model's
// estimate, all four fields, on every archetype at three cache sizes, in
// the identity order and in a random one.
func TestMatchesListReference(t *testing.T) {
	for arch := workloads.ArchScrambledBlock; arch <= workloads.ArchHubPowerLaw; arch++ {
		a := workloads.Generate(arch, workloads.Params{
			Rows: 1024, Cols: 1024, Density: 0.01, Seed: 5, Groups: 8,
		})
		b := OperandB(a)
		random := sparse.IdentityPerm(a.Rows)
		rand.New(rand.NewSource(int64(arch))).Shuffle(len(random), func(i, j int) {
			random[i], random[j] = random[j], random[i]
		})
		for _, capacity := range []int64{16 << 10, 64 << 10, 1 << 20} {
			for name, perm := range map[string]sparse.Permutation{
				"identity": sparse.IdentityPerm(a.Rows),
				"random":   random,
			} {
				got, err := EstimateBWithPerm(a, b, perm, capacity, 12)
				if err != nil {
					t.Fatal(err)
				}
				if want := listEstimate(a, b, perm, capacity, 12); got != want {
					t.Errorf("%v, %d B cache, %s order: got %+v, want %+v", arch, capacity, name, got, want)
				}
			}
		}
	}
}
