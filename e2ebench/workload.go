package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"bootes/internal/plancache"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// spec is one slot of a workload's matrix cycle: the archetype, a base row
// count, and the target density. Request i of a workload uses slot
// i mod len(specs), so every run and every seed sees the same mix of
// archetypes, sizes and similarity tiers; the seed only changes the matrices'
// random structure and jitters the row count (see corpus).
type spec struct {
	arch    workloads.Archetype
	rows    int
	density float64
}

// workload is one traffic mix the benchmark drives through bootesd.
type workload struct {
	name string
	why  string
	// nodes is the bootesd process count (3 is a -peers/-self fleet);
	// clients is the closed-loop client count (capped at nproc).
	nodes, clients int
	// text sends MatrixMarket bodies instead of BCSR.
	text bool
	// hot plans a fixed working set during set-up and then only replays
	// it, so every timed request is a cache hit. Cold workloads send every
	// matrix once: every timed request is a miss.
	hot bool
	// specs is the matrix cycle; a hot workload's working set is the cycle
	// generated twice over.
	specs []spec
	// replay is how many requests the traced run replays in-process.
	replay int
}

const (
	scrambled = workloads.ArchScrambledBlock
	fem       = workloads.ArchFEM
	fem3d     = workloads.ArchFEM3D
	powerLaw  = workloads.ArchPowerLaw
	circuit   = workloads.ArchCircuit
	knn       = workloads.ArchKNN
	banded    = workloads.ArchBanded
	random    = workloads.ArchRandom
)

var allWorkloads = []*workload{
	{
		name:  "cold-sparse",
		why:   "one bootesd node, distinct sparse (density < 1/64) BCSR matrices, every request a pipeline miss on the exact tier: eigensolve-dominated planning plus the fsync'd cache put",
		nodes: 1, clients: 1,
		specs: []spec{
			{scrambled, 1024, 0.006}, {fem, 1536, 0.004}, {powerLaw, 1024, 0.007},
			{knn, 1024, 0.007}, {banded, 1024, 0.006}, {fem3d, 1536, 0.004},
			{scrambled, 2048, 0.004}, {circuit, 768, 0.008}, {powerLaw, 1536, 0.005},
			{knn, 768, 0.008},
		},
		replay: 40,
	},
	{
		name:  "cold-dense",
		why:   "one bootesd node, distinct denser (density >= 1/64) BCSR matrices that the auto selector sends to the bitset tier: similarity's share of planning rises",
		nodes: 1, clients: 1,
		specs: []spec{
			{scrambled, 768, 0.05}, {knn, 1024, 0.04}, {scrambled, 1024, 0.04},
			{fem3d, 1024, 0.03}, {random, 1024, 0.03}, {scrambled, 640, 0.06},
			{knn, 768, 0.05}, {powerLaw, 768, 0.05},
		},
		replay: 40,
	},
	{
		name:  "hot-fleet",
		why:   "three-node fleet, two clients replaying a planned working set as MatrixMarket text, 2 in 3 requests forwarded: all hits, so parse, hash, hop and encode",
		nodes: 3, clients: 2,
		text: true, hot: true,
		specs: []spec{
			{scrambled, 512, 0.08}, {knn, 768, 0.05}, {fem3d, 1024, 0.03},
			{powerLaw, 768, 0.05}, {scrambled, 640, 0.06}, {random, 768, 0.04},
			{banded, 1024, 0.02}, {knn, 512, 0.08},
		},
		replay: 160,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// matrix is one generated request body with what the checks need to know
// about it.
type matrix struct {
	rows int
	key  string
	body []byte
}

// splitmix64 spreads (seed, index) pairs into independent generator seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// corpus generates n distinct matrices for w from seed. Matrix i comes from
// slot i mod len(w.specs); a structural duplicate of an earlier matrix (the
// banded archetype ignores the seed) is redrawn with the next sub-seed and 32
// more rows, so every key is distinct and a cold workload never hits the
// cache. First draws are generated on every CPU; duplicates are then redrawn
// in index order, so the result does not depend on scheduling.
func corpus(w *workload, seed int64, n int) ([]*matrix, error) {
	out := make([]*matrix, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = draw(w, seed, i, 0)
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for i := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for d := uint64(1); seen[out[i].key]; d++ {
			if d == 16 {
				return nil, fmt.Errorf("matrix %d: no distinct structure in %d draws", i, d)
			}
			var err error
			if out[i], err = draw(w, seed, i, d); err != nil {
				return nil, err
			}
		}
		seen[out[i].key] = true
	}
	return out, nil
}

// draw generates sub-seed d of matrix i.
func draw(w *workload, seed int64, i int, d uint64) (*matrix, error) {
	sp := w.specs[i%len(w.specs)]
	h := splitmix64(uint64(seed)<<20 ^ uint64(i)<<4 ^ d)
	rows := sp.rows + int(h%32) + 32*int(d)
	m := workloads.Generate(sp.arch, workloads.Params{
		Rows: rows, Cols: rows, Density: sp.density, Seed: int64(h >> 1),
	})
	body, err := encode(m, w.text)
	if err != nil {
		return nil, err
	}
	return &matrix{rows: m.Rows, key: plancache.KeyCSR(m), body: body}, nil
}

func encode(m *sparse.CSR, text bool) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if text {
		err = sparse.WriteMatrixMarket(&buf, m)
	} else {
		err = sparse.WriteBinary(&buf, m)
	}
	return buf.Bytes(), err
}

// decode parses a request body the way bootesd's sniffing reader does.
func decode(body []byte) (*sparse.CSR, error) {
	if bytes.HasPrefix(body, []byte("BCSR")) {
		return sparse.ReadBinary(bytes.NewReader(body))
	}
	return sparse.ReadMatrixMarket(bytes.NewReader(body))
}

// Owner-relative roles of a hot-fleet request's target node.
const (
	roleOwner   = iota // the key's ring owner: served locally
	roleReplica        // the key's second replica: forwarded to the owner
	roleOther          // outside the replica set: forwarded to the owner
	numRoles
)

// hotStep is one hot-fleet request: which working-set matrix, sent to which
// node relative to the matrix's ring placement.
type hotStep struct{ matrix, role int }

// hotSchedule returns the first n requests of the hot request stream. The
// stream is a sequence of blocks; each block is every (matrix, role) pair
// once, in a seeded shuffle. Each block therefore sends exactly a third of
// its requests to owners, whatever ports (and so ring placement) a run gets.
func hotSchedule(seed int64, setSize, n int) []hotStep {
	block := setSize * numRoles
	out := make([]hotStep, 0, n)
	for b := 0; len(out) < n; b++ {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(b)<<32))))
		for _, p := range rng.Perm(block) {
			if len(out) == n {
				break
			}
			out = append(out, hotStep{matrix: p / numRoles, role: p % numRoles})
		}
	}
	return out
}
