package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// setWorkersForTest pins the worker knob and restores the default on
// cleanup.
func setWorkersForTest(t testing.TB, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

// laplacian2D builds the standard SPD 5-point Laplacian on an nx×ny grid
// with unit spacing and a Dirichlet shift on the first row of cells (the
// same structure the FDM solver assembles).
func laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	co := NewCoord(n)
	idx := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := idx(i, j)
			if i+1 < nx {
				q := idx(i+1, j)
				co.Add(p, p, 1)
				co.Add(q, q, 1)
				co.Add(p, q, -1)
				co.Add(q, p, -1)
			}
			if j+1 < ny {
				q := idx(i, j+1)
				co.Add(p, p, 1)
				co.Add(q, q, 1)
				co.Add(p, q, -1)
				co.Add(q, p, -1)
			}
			if j == 0 {
				co.Add(p, p, 2)
			}
		}
	}
	return co.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// bitEqual compares two float64 slices for exact (bit-level) equality.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDotDeterministicAcrossWorkers locks the chunked-reduction contract:
// the inner product of a large vector pair is bit-identical at worker
// counts 1, 2 and 8.
func TestDotDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 3*reduceChunk + 137 // force multiple, ragged chunks
	a, b := randVec(rng, n), randVec(rng, n)
	var got []float64
	for _, w := range []int{1, 2, 8} {
		setWorkersForTest(t, w)
		got = append(got, Dot(a, b))
	}
	for i := 1; i < len(got); i++ {
		if math.Float64bits(got[i]) != math.Float64bits(got[0]) {
			t.Fatalf("Dot drifted with worker count: %v", got)
		}
	}
	// And the chunked answer matches a plain sum to rounding accuracy.
	plain := 0.0
	for i := range a {
		plain += a[i] * b[i]
	}
	if math.Abs(got[0]-plain) > 1e-9*math.Abs(plain)+1e-12 {
		t.Fatalf("chunked Dot %v far from plain sum %v", got[0], plain)
	}
}

// TestMulVecDeterministicAcrossWorkers: parallel SpMV is bit-identical to
// serial for any worker count, on a matrix large enough to take the
// parallel path.
func TestMulVecDeterministicAcrossWorkers(t *testing.T) {
	a := laplacian2D(300, 60) // 18k rows, ~90k nonzeros
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, a.N)
	var results [][]float64
	for _, w := range []int{1, 2, 8} {
		setWorkersForTest(t, w)
		y := make([]float64, a.N)
		a.MulVec(x, y)
		results = append(results, y)
	}
	for i := 1; i < len(results); i++ {
		if !bitEqual(results[i], results[0]) {
			t.Fatalf("MulVec drifted between worker counts 1 and %d", []int{1, 2, 8}[i])
		}
	}
	// Cross-check against an independent reference product.
	ref := make([]float64, a.N)
	a.mulVecRows(x, ref, 0, a.N)
	if !bitEqual(ref, results[0]) {
		t.Fatal("parallel MulVec differs from the sequential kernel")
	}
}

// TestAxpyDeterministicAcrossWorkers: elementwise update identical at any
// worker count.
func TestAxpyDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := parallelMinWork + 1001
	x := randVec(rng, n)
	y0 := randVec(rng, n)
	var results [][]float64
	for _, w := range []int{1, 2, 8} {
		setWorkersForTest(t, w)
		y := append([]float64(nil), y0...)
		Axpy(0.37, x, y)
		results = append(results, y)
	}
	for i := 1; i < len(results); i++ {
		if !bitEqual(results[i], results[0]) {
			t.Fatal("Axpy drifted with worker count")
		}
	}
}

// namedPrecond is one of the solve ladder's CG preconditioners.
type namedPrecond struct {
	name string
	m    preconditioner
}

// ladderPreconds builds the ladder's two CG preconditioners for a:
// Jacobi and IC(0).
func ladderPreconds(tb testing.TB, a *CSR) []namedPrecond {
	ic, err := newIC0(a)
	if err != nil {
		tb.Fatal(err)
	}
	return []namedPrecond{{"jacobi", newJacobi(a)}, {"ic0", ic}}
}

// TestSolveCGDeterministicAcrossWorkers: a full PCG solve — SpMV, dots,
// axpys, preconditioner — lands on bit-identical solutions at worker
// counts 1, 2 and 8, for both ladder preconditioners.
func TestSolveCGDeterministicAcrossWorkers(t *testing.T) {
	a := laplacian2D(120, 80)
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, a.N)
	for _, pc := range ladderPreconds(t, a) {
		var sols [][]float64
		var iters []int
		for _, w := range []int{1, 2, 8} {
			setWorkersForTest(t, w)
			x := make([]float64, a.N)
			res := solveCG(a, b, x, 1e-10, 0, pc.m, &CGScratch{})
			if !res.Converged {
				t.Fatalf("%s: CG did not converge (residual %g)", pc.name, res.Residual)
			}
			sols = append(sols, x)
			iters = append(iters, res.Iterations)
		}
		for i := 1; i < len(sols); i++ {
			if !bitEqual(sols[i], sols[0]) || iters[i] != iters[0] {
				t.Fatalf("%s: solve drifted with worker count (iters %v)", pc.name, iters)
			}
		}
	}
}

// TestPreconditionerCutsIterations proves the point of IC(0) as the
// ladder's primary CG rung: it beats Jacobi on the model conduction
// matrix.
func TestPreconditionerCutsIterations(t *testing.T) {
	a := laplacian2D(150, 100)
	rng := rand.New(rand.NewSource(9))
	b := randVec(rng, a.N)
	iters := map[string]int{}
	for _, pc := range ladderPreconds(t, a) {
		x := make([]float64, a.N)
		res := solveCG(a, b, x, 1e-10, 0, pc.m, &CGScratch{})
		if !res.Converged {
			t.Fatalf("%s did not converge", pc.name)
		}
		iters[pc.name] = res.Iterations
	}
	t.Logf("iterations: jacobi=%d ic0=%d", iters["jacobi"], iters["ic0"])
	if iters["ic0"] >= iters["jacobi"] {
		t.Errorf("IC(0) (%d iters) should beat Jacobi (%d)", iters["ic0"], iters["jacobi"])
	}
}

// TestIC0ExactOnTridiagonal: a tridiagonal SPD matrix has a fill-free
// Cholesky factor, so IC(0) is exact and a single preconditioner
// application solves the system.
func TestIC0ExactOnTridiagonal(t *testing.T) {
	n := 64
	co := NewCoord(n)
	for i := 0; i < n; i++ {
		co.Add(i, i, 2.5)
		if i+1 < n {
			co.Add(i, i+1, -1)
			co.Add(i+1, i, -1)
		}
	}
	a := co.ToCSR()
	m, err := newIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b := randVec(rng, n)
	z := make([]float64, n)
	m.apply(b, z)
	// Check A·z ≈ b.
	az := make([]float64, n)
	a.MulVec(z, az)
	for i := range az {
		if math.Abs(az[i]-b[i]) > 1e-12*(1+math.Abs(b[i])) {
			t.Fatalf("IC(0) not exact on tridiagonal: row %d: %v vs %v", i, az[i], b[i])
		}
	}
}

// TestSolveCGZeroRHS locks the zero-b early return: exact x = 0,
// Converged, zero iterations, even from a nonzero warm start.
func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacian2D(20, 20)
	b := make([]float64, a.N)
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i) + 1 // dirty warm start
	}
	res := SolveCG(a, b, x, 1e-10, 0)
	if !res.Converged || res.Iterations != 0 || res.Residual != 0 {
		t.Fatalf("zero RHS: got %+v, want converged at 0 iterations", res)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero RHS must zero the solution; x[%d] = %v", i, v)
		}
	}
}

// TestSolveCGWarmStartConverges: a warm start near the solution converges
// in far fewer iterations than a cold start (the batched-RHS win).
func TestSolveCGWarmStartConverges(t *testing.T) {
	a := laplacian2D(80, 80)
	rng := rand.New(rand.NewSource(13))
	b := randVec(rng, a.N)
	m, err := newIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]float64, a.N)
	resCold := solveCG(a, b, cold, 1e-10, 0, m, &CGScratch{})
	if !resCold.Converged {
		t.Fatal("cold solve did not converge")
	}
	// Perturb b by 1% and warm-start from the previous solution.
	b2 := append([]float64(nil), b...)
	for i := range b2 {
		b2[i] *= 1.01
	}
	warm := append([]float64(nil), cold...)
	resWarm := solveCG(a, b2, warm, 1e-10, 0, m, &CGScratch{})
	if !resWarm.Converged {
		t.Fatal("warm solve did not converge")
	}
	if resWarm.Iterations >= resCold.Iterations {
		t.Errorf("warm start (%d iters) should beat cold start (%d)",
			resWarm.Iterations, resCold.Iterations)
	}
}

// TestParFor covers the outer-loop primitive: every index runs exactly
// once and results assemble in order.
func TestParFor(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		setWorkersForTest(t, w)
		n := 1000
		out := make([]int, n)
		ParFor(n, func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
	// Degenerate sizes.
	ParFor(0, func(int) { t.Fatal("ParFor(0) must not call fn") })
	ran := false
	ParFor(1, func(i int) { ran = true })
	if !ran {
		t.Fatal("ParFor(1) must run the single index")
	}
}

// TestSetWorkersClamp: negative resets to the GOMAXPROCS default.
func TestSetWorkersClamp(t *testing.T) {
	SetWorkers(-5)
	t.Cleanup(func() { SetWorkers(0) })
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after negative SetWorkers", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
}

// TestHotLoopsAllocationFree locks the serial hot paths at zero
// allocations: with one worker, Dot, Axpy and CSR.MulVec must run
// entirely on the calling goroutine with no per-call scratch. This is
// what the BENCH_5 SpMV regression traced back to — scheduling overhead
// the single-core path should never pay.
func TestHotLoopsAllocationFree(t *testing.T) {
	setWorkersForTest(t, 1)
	a := laplacian2D(200, 200)
	rng := rand.New(rand.NewSource(5))
	x := randVec(rng, a.N)
	y := make([]float64, a.N)
	var sink float64
	cases := map[string]func(){
		"Dot":    func() { sink += Dot(x, x) },
		"Axpy":   func() { Axpy(0.5, x, y) },
		"MulVec": func() { a.MulVec(x, y) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %.0f allocs/op with workers=1, want 0", name, allocs)
		}
	}
	_ = sink
}
