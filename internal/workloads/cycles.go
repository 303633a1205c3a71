package workloads

import "bootes/internal/sparse"

// Slot is one entry of a request cycle: an archetype at a base row count
// and a target density.
type Slot struct {
	Arch    Archetype
	Rows    int
	Density float64
}

// ColdSparse and ColdDense are the matrix cycles of e2ebench's cold-sparse
// and cold-dense workloads (e2ebench/workload.go): the matrices a served
// cold plan sees. e2ebench is its own module and keeps its own copy.
var (
	ColdSparse = []Slot{
		{ArchScrambledBlock, 1024, 0.006}, {ArchFEM, 1536, 0.004},
		{ArchPowerLaw, 1024, 0.007}, {ArchKNN, 1024, 0.007},
		{ArchBanded, 1024, 0.006}, {ArchFEM3D, 1536, 0.004},
		{ArchScrambledBlock, 2048, 0.004}, {ArchCircuit, 768, 0.008},
		{ArchPowerLaw, 1536, 0.005}, {ArchKNN, 768, 0.008},
	}
	ColdDense = []Slot{
		{ArchScrambledBlock, 768, 0.05}, {ArchKNN, 1024, 0.04},
		{ArchScrambledBlock, 1024, 0.04}, {ArchFEM3D, 1024, 0.03},
		{ArchRandom, 1024, 0.03}, {ArchScrambledBlock, 640, 0.06},
		{ArchKNN, 768, 0.05}, {ArchPowerLaw, 768, 0.05},
	}
)

// Corpus generates perSlot matrices for every slot, in slot-major,
// seed-minor order. Matrix s of a slot jitters the slot's row count by up
// to 31 rows, as e2ebench's corpus does, and seeds the generator
// independently of every other matrix.
func Corpus(slots []Slot, seed int64, perSlot int) []*sparse.CSR {
	var out []*sparse.CSR
	for i, sl := range slots {
		for s := 0; s < perSlot; s++ {
			h := splitmix64(uint64(seed)<<20 ^ uint64(i)<<8 ^ uint64(s))
			rows := sl.Rows + int(h%32)
			out = append(out, Generate(sl.Arch, Params{
				Rows: rows, Cols: rows, Density: sl.Density, Seed: int64(h >> 1),
			}))
		}
	}
	return out
}

// splitmix64 spreads a (seed, slot, sub-seed) word into an independent
// generator seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
