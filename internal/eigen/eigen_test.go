package eigen

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

func TestSymTridEigenKnown(t *testing.T) {
	// The n×n tridiagonal with diagonal 2 and off-diagonal -1 has
	// eigenvalues 2 - 2cos(kπ/(n+1)).
	n := 8
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	eig, z, err := SymTridEigen(d, e, true)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(eig[k-1]-want) > 1e-10 {
			t.Errorf("eig[%d] = %v, want %v", k-1, eig[k-1], want)
		}
	}
	// Check the eigen decomposition: T·z_i = λ_i·z_i.
	for i := 0; i < n; i++ {
		for row := 0; row < n; row++ {
			tv := d[row] * z[row*n+i]
			if row > 0 {
				tv += e[row-1] * z[(row-1)*n+i]
			}
			if row < n-1 {
				tv += e[row] * z[(row+1)*n+i]
			}
			if math.Abs(tv-eig[i]*z[row*n+i]) > 1e-9 {
				t.Fatalf("T·z ≠ λ·z at eigenpair %d row %d", i, row)
			}
		}
	}
}

func TestSymTridEigenAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	eig, _, err := SymTridEigen(d, e, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if eig[i] < eig[i-1] {
			t.Fatalf("eigenvalues not ascending at %d", i)
		}
	}
	// Trace is preserved.
	var trace, sum float64
	for i := range d {
		trace += d[i]
	}
	for _, v := range eig {
		sum += v
	}
	if math.Abs(trace-sum) > 1e-8 {
		t.Errorf("trace %v != eigenvalue sum %v", trace, sum)
	}
}

func TestSymTridEigenEdge(t *testing.T) {
	eig, _, err := SymTridEigen([]float64{3}, nil, false)
	if err != nil || len(eig) != 1 || eig[0] != 3 {
		t.Errorf("1x1 case: eig=%v err=%v", eig, err)
	}
	if _, _, err := SymTridEigen([]float64{1, 2}, []float64{1, 2, 3}, false); err == nil {
		t.Error("bad off-diagonal length accepted")
	}
	eig, _, err = SymTridEigen(nil, nil, false)
	if err != nil || eig != nil {
		t.Errorf("empty case: %v %v", eig, err)
	}
}

func TestJacobiEigenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 12
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	eig, v, err := JacobiEigen(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// A·v_i = λ_i·v_i
	for i := 0; i < n; i++ {
		for row := 0; row < n; row++ {
			av := 0.0
			for col := 0; col < n; col++ {
				av += a[row*n+col] * v[col*n+i]
			}
			if math.Abs(av-eig[i]*v[row*n+i]) > 1e-8 {
				t.Fatalf("A·v ≠ λ·v at pair %d", i)
			}
		}
	}
	// Eigenvectors orthonormal.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := 0.0
			for row := 0; row < n; row++ {
				d += v[row*n+i] * v[row*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-8 {
				t.Fatalf("eigenvectors not orthonormal (%d,%d)=%v", i, j, d)
			}
		}
	}
}

func TestJacobiEigenBadInput(t *testing.T) {
	if _, _, err := JacobiEigen(make([]float64, 5), 2); err == nil {
		t.Error("size mismatch accepted")
	}
}

// ringGraph returns the pattern adjacency+self-loop matrix of a cycle.
func ringGraph(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, true)
	for i := 0; i < n; i++ {
		coo.AddPattern(i, i)
		coo.AddPattern(i, (i+1)%n)
		coo.AddPattern(i, (i+n-1)%n)
	}
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func TestLanczosMatchesJacobi(t *testing.T) {
	// Random sparse symmetric matrix; compare top eigenvalues of Lanczos
	// (forced, via low DenseFallbackDim) against the dense reference.
	rng := rand.New(rand.NewSource(6))
	n := 150
	coo := sparse.NewCOO(n, n, false)
	for i := 0; i < n; i++ {
		coo.Add(i, i, rng.NormFloat64()*2)
		for d := 0; d < 4; d++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
		}
	}
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	op := CSROp{M: m}

	dense, err := denseLargest(context.Background(), op, 5)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := Largest(op, Options{K: 5, Seed: 1, DenseFallbackDim: 1, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !lz.Converged {
		t.Error("Lanczos did not converge")
	}
	for i := 0; i < 5; i++ {
		if math.Abs(dense.Values[i]-lz.Values[i]) > 1e-7 {
			t.Errorf("eig %d: lanczos %v, dense %v", i, lz.Values[i], dense.Values[i])
		}
	}
	// Residual check ‖Av − λv‖.
	y := make([]float64, n)
	for i, vec := range lz.Vectors {
		if err := op.Apply(vec, y); err != nil {
			t.Fatal(err)
		}
		r := 0.0
		for j := range y {
			d := y[j] - lz.Values[i]*vec[j]
			r += d * d
		}
		if math.Sqrt(r) > 1e-6 {
			t.Errorf("eigenpair %d residual %g too large", i, math.Sqrt(r))
		}
	}
}

func TestLanczosNormalizedSimilarityTopEigenvalue(t *testing.T) {
	// For a connected graph, M = D^{-1/2} S D^{-1/2} has top eigenvalue 1
	// (Laplacian eigenvalue 0).
	a := ringGraph(200)
	s := sparse.Similarity(a)
	op := NewNormalizedSimilarity(s)
	res, err := Largest(op, Options{K: 2, Seed: 3, DenseFallbackDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-1) > 1e-8 {
		t.Errorf("top eigenvalue = %v, want 1", res.Values[0])
	}
	if res.Values[1] >= res.Values[0]+1e-12 {
		t.Error("eigenvalues not descending")
	}
}

func TestLanczosDisconnectedComponents(t *testing.T) {
	// Two disjoint rings: eigenvalue 1 has multiplicity 2 in M; Lanczos
	// must find both (breakdown/restart path).
	n := 60
	coo := sparse.NewCOO(2*n, 2*n, true)
	addRing := func(offset int) {
		for i := 0; i < n; i++ {
			coo.AddPattern(offset+i, offset+i)
			coo.AddPattern(offset+i, offset+(i+1)%n)
			coo.AddPattern(offset+i, offset+(i+n-1)%n)
		}
	}
	addRing(0)
	addRing(n)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	s := sparse.Similarity(a)
	op := NewNormalizedSimilarity(s)
	res, err := Largest(op, Options{K: 2, Seed: 5, DenseFallbackDim: 1, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(res.Values[i]-1) > 1e-6 {
			t.Errorf("eigenvalue %d = %v, want 1 (multiplicity 2)", i, res.Values[i])
		}
	}
}

func TestImplicitMatchesExplicitSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	coo := sparse.NewCOO(80, 60, true)
	for i := 0; i < 80; i++ {
		for d := 0; d < 5; d++ {
			coo.AddPattern(i, rng.Intn(60))
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	explicit := NewNormalizedSimilarity(sparse.Similarity(a))
	implicit := NewImplicitSimilarity(a)
	if explicit.Dim() != implicit.Dim() {
		t.Fatal("dim mismatch")
	}
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, a.Rows)
	y2 := make([]float64, a.Rows)
	if err := explicit.Apply(x, y1); err != nil {
		t.Fatal(err)
	}
	if err := implicit.Apply(x, y2); err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-10 {
			t.Fatalf("implicit/explicit mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestLargestErrors(t *testing.T) {
	op := CSROp{M: sparse.Identity(10, false)}
	if _, err := Largest(op, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Largest(op, Options{K: 11}); err == nil {
		t.Error("K>n accepted")
	}
}

func TestDenseFallbackIdentity(t *testing.T) {
	op := CSROp{M: sparse.Identity(10, true)}
	res, err := Largest(op, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("identity eigenvalue %d = %v", i, v)
		}
	}
}

func TestLocalReorthOnSeparatedSpectrum(t *testing.T) {
	// With a well-separated spectrum and a short run, the three-term
	// recurrence matches full reorthogonalization closely.
	rng := rand.New(rand.NewSource(31))
	n := 300
	coo := sparse.NewCOO(n, n, false)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(i)) // strongly separated diagonal
		if i+1 < n {
			v := rng.NormFloat64() * 0.01
			coo.Add(i, i+1, v)
			coo.Add(i+1, i, v)
		}
	}
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	op := CSROp{M: m}
	full, err := Largest(op, Options{K: 3, Seed: 1, DenseFallbackDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Largest(op, Options{K: 3, Seed: 1, DenseFallbackDim: 1, LocalReorth: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(full.Values[i]-local.Values[i]) > 1e-6*full.Values[0] {
			t.Errorf("eig %d: local %v vs full %v", i, local.Values[i], full.Values[i])
		}
	}
}

func TestNormalizedSpectrumBoundedProperty(t *testing.T) {
	// Eigenvalues of M = D^{-1/2} S D^{-1/2} lie in [-1, 1] for any
	// similarity matrix S = Ā·Āᵀ (it is similar to a stochastic-like
	// operator); verify on random patterns.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		coo := sparse.NewCOO(n, n, true)
		for i := 0; i < n; i++ {
			for d := 0; d < 1+rng.Intn(5); d++ {
				coo.AddPattern(i, rng.Intn(n))
			}
		}
		a, err := coo.ToCSR()
		if err != nil {
			return false
		}
		op := NewNormalizedSimilarity(sparse.Similarity(a))
		res, err := Largest(op, Options{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		for _, v := range res.Values {
			if v > 1+1e-8 || v < -1-1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// scrambledBlockOp is the normalized similarity of a scrambled-block matrix,
// hub columns dropped as the spectral pipeline's exact tier does: the
// operator shape the pipeline hands the solver.
func scrambledBlockOp(rows int, density float64, seed int64) *NormalizedSimilarity {
	a := workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: rows, Cols: rows, Density: density, Seed: seed,
	})
	return NewNormalizedSimilarity(sparse.SimilarityCapped(a, sparse.HubDegreeThreshold(a)))
}

func TestSmallBasisStillAddsKrylovVectors(t *testing.T) {
	// MaxBasis=20 is below the 24-vector Ritz block K=16 retains: without
	// the floor every restart kept the whole basis, added nothing, and the
	// solve stopped unconverged after the first cycle's 20 matvecs. Raised
	// to 25, each restart adds one Krylov vector, so enough restarts
	// converge.
	op := scrambledBlockOp(600, 0.01, 3)
	res, err := Largest(op, Options{K: 16, MaxBasis: 20, MaxRestarts: 200, Seed: 1, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d matvecs", res.MatVecs)
	}
	dense, err := denseLargest(context.Background(), op, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense.Values {
		if math.Abs(res.Values[i]-dense.Values[i]) > 1e-7 {
			t.Errorf("θ%d = %v, dense %v", i+1, res.Values[i], dense.Values[i])
		}
	}
}

// seqCSROp is a sequential CSR matvec that allocates nothing, so an
// allocation count over a solve measures the solver alone (the production
// operators' parallel loops allocate per call).
type seqCSROp struct{ m *sparse.CSR }

func (o seqCSROp) Dim() int { return o.m.Rows }

func (o seqCSROp) Apply(x, y []float64) error {
	for i := range y {
		s := 0.0
		vals := o.m.RowVals(i)
		for p, c := range o.m.Row(i) {
			s += vals[p] * x[c]
		}
		y[i] = s
	}
	return nil
}

func TestLargestAllocationsIndependentOfMatvecs(t *testing.T) {
	op := scrambledBlockOp(2000, 0.006, 5)
	sop := seqCSROp{m: op.S.Clone()}
	for i := 0; i < sop.m.Rows; i++ {
		vals := sop.m.RowVals(i)
		for p, c := range sop.m.Row(i) {
			vals[p] *= op.InvSqrt[i] * op.InvSqrt[c]
		}
	}
	run := func(restarts int) (allocs float64, matvecs int) {
		// A tolerance this tight outlasts the shorter restart budget.
		opts := Options{K: 32, MaxBasis: 80, Tol: 1e-14, MaxRestarts: restarts, Seed: 1}
		// AllocsPerRun counts every malloc in the process and divides by the
		// run count in integers: over 5 runs, up to 4 stray runtime
		// allocations drop out, while one more allocation per solve shows.
		allocs = testing.AllocsPerRun(5, func() {
			res, err := Largest(sop, opts)
			if err != nil {
				t.Fatal(err)
			}
			matvecs = res.MatVecs
		})
		return allocs, matvecs
	}
	shortAllocs, shortMV := run(1)
	longAllocs, longMV := run(4)
	if longMV <= shortMV {
		t.Fatalf("matvecs %d → %d: the longer solve must do more work", shortMV, longMV)
	}
	if longAllocs != shortAllocs {
		t.Errorf("allocations grew with matvecs: %v allocs at %d matvecs, %v at %d",
			shortAllocs, shortMV, longAllocs, longMV)
	}
}

func TestModeledBytesCountsRitzBlock(t *testing.T) {
	const n = 1000
	// Basis of MaxBasis+1 vectors plus the K+min(K,8) retained Ritz block.
	if got, want := ModeledBytes(Options{K: 16, MaxBasis: 48}, n), int64(49+24)*n*8; got != want {
		t.Errorf("K=16 MaxBasis=48: %d bytes, want %d", got, want)
	}
	// A basis below the Ritz block is raised to K+min(K,8)+1.
	if got, want := ModeledBytes(Options{K: 16, MaxBasis: 20}, n), int64(26+24)*n*8; got != want {
		t.Errorf("K=16 MaxBasis=20: %d bytes, want %d", got, want)
	}
	// The dense path holds the materialized operator and K result vectors.
	if got, want := ModeledBytes(Options{K: 4, MaxBasis: 48}, 90), int64(90+4)*90*8; got != want {
		t.Errorf("n=90 dense path: %d bytes, want %d", got, want)
	}
}

// TestUnconvergedSolveSpendsMatvecCap pins the matvec cap RitzBlock's doc
// states, which the spectral pipeline sizes its restart counts by: a solve
// that never meets its tolerance applies the operator exactly
// MaxBasis + MaxRestarts·(MaxBasis − RitzBlock(K)) times.
func TestUnconvergedSolveSpendsMatvecCap(t *testing.T) {
	// A mesh's slowly decaying spectrum keeps the solves far from 1e-15.
	op := NewImplicitSimilarity(workloads.Generate(workloads.ArchFEM, workloads.Params{
		Rows: 2000, Cols: 2000, Density: 0.004, Seed: 2,
	}))
	for _, o := range []Options{
		{K: 8, MaxBasis: 32, MaxRestarts: 3},
		{K: 2, MaxBasis: 48, MaxRestarts: 2},
		{K: 16, MaxBasis: 48, MaxRestarts: 1},
	} {
		o.Tol, o.Seed = 1e-15, 1
		res, err := Largest(op, o)
		if err != nil {
			t.Fatal(err)
		}
		want := o.MaxBasis + o.MaxRestarts*(o.MaxBasis-RitzBlock(o.K))
		if res.Converged || res.MatVecs != want {
			t.Errorf("%+v: converged=%v after %d matvecs, want unconverged after %d",
				o, res.Converged, res.MatVecs, want)
		}
	}
}
