package mathx

import (
	"errors"
	"math/rand"
	"testing"
)

// The solve-ladder tests. Each rung has a test that fails without it:
// the direct rung's residual check (a stale factor), direct → IC(0)
// (the same test counts exactly one step down), IC(0) → Jacobi (an SPD
// matrix on which IC(0) breaks down) and exhaustion → ErrNumeric. The
// counters are process-wide, so the exact-delta assertions rely on no
// test in this package running in parallel with them.

// stampDiag adds d to every diagonal entry of a in place.
func stampDiag(a *CSR, d float64) {
	for i := 0; i < a.N; i++ {
		a.Val[a.Slot(i, i)] += d
	}
}

func TestLadderRejectsStaleFactor(t *testing.T) {
	a := laplacian2D(30, 20)
	s := NewSPD(a, 64)
	if !s.Direct() {
		t.Fatal("30×20 Laplacian must take the direct rung at band budget 64")
	}
	// Restamp the values without Refactor: the banded factor is stale.
	stampDiag(a, 0.5)
	b := randVec(rand.New(rand.NewSource(3)), a.N)
	x := make([]float64, a.N)
	before := NumericStats()
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	after := NumericStats()
	if rr := RelResidual(a, x, b, nil); rr > 1e-10 {
		t.Fatalf("stale-factor solve residual %g against the restamped matrix", rr)
	}
	if d := after.DirectRejects - before.DirectRejects; d != 1 {
		t.Fatalf("DirectRejects rose by %d, want 1", d)
	}
	// One step down: the IC(0) rung, built on the current values,
	// answers without reaching Jacobi.
	if d := after.FallbackSolves - before.FallbackSolves; d != 1 {
		t.Fatalf("FallbackSolves rose by %d, want 1 (direct → IC(0))", d)
	}
}

// TestLadderRefactorRefreshesFactors: after an in-place restamp,
// Refactor makes the direct rung exact again, and refreshes the IC(0)
// factor in its existing storage to the values a fresh build produces.
func TestLadderRefactorRefreshesFactors(t *testing.T) {
	a := laplacian2D(30, 20)
	s := NewSPD(a, 64)
	ic := s.precond()
	if ic == nil {
		t.Fatal("IC(0) broke down on a Laplacian")
	}
	stampDiag(a, 0.5)
	s.Refactor()
	b := randVec(rand.New(rand.NewSource(4)), a.N)
	x := make([]float64, a.N)
	before := NumericStats()
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	if after := NumericStats(); after.DirectRejects != before.DirectRejects || after.FallbackSolves != before.FallbackSolves {
		t.Fatalf("refactored direct solve left its rung: %+v -> %+v", before, after)
	}
	if rr := RelResidual(a, x, b, nil); rr > 1e-12 {
		t.Fatalf("refactored direct solve residual %g", rr)
	}
	if got := s.precond(); got != ic {
		t.Fatal("Refactor reallocated the IC(0) factor")
	}
	fresh, err := newIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(ic.val, fresh.val) || !bitEqual(ic.diag, fresh.diag) {
		t.Fatal("refactored IC(0) differs from a fresh factor of the restamped matrix")
	}
}

// TestLadderIC0BreakdownFallsBackToJacobi: a 4-cycle that is SPD but
// not an M-matrix, on which IC(0) hits a non-positive pivot. With no
// direct rung, the solve must step down to Jacobi CG and still answer.
func TestLadderIC0BreakdownFallsBackToJacobi(t *testing.T) {
	co := NewCoord(4)
	for i, row := range [][]float64{
		{1.5, -1, 0, 0.6},
		{-1, 1.5, -1, 0},
		{0, -1, 1.5, -1},
		{0.6, 0, -1, 1.5},
	} {
		for j, v := range row {
			if v != 0 {
				co.Add(i, j, v)
			}
		}
	}
	a := co.ToCSR()
	if _, err := NewBandCholesky(a, 3); err != nil {
		t.Fatalf("test matrix must be SPD: %v", err)
	}
	s := NewSPD(a, -1)
	if s.Direct() {
		t.Fatal("negative band budget must leave no direct rung")
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, 4)
	before := NumericStats()
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	after := NumericStats()
	if s.precond() != nil {
		t.Fatal("IC(0) must break down on this matrix")
	}
	if d := after.FallbackSolves - before.FallbackSolves; d != 1 {
		t.Fatalf("FallbackSolves rose by %d, want 1 (IC(0) → Jacobi)", d)
	}
	if rr := RelResidual(a, x, b, nil); rr > 1e-10 {
		t.Fatalf("Jacobi-rung residual %g", rr)
	}
}

// TestLadderExhaustionIsStructured: when every rung fails, the caller
// gets ErrNumeric with a diagnosis, not a bare string — driven on a
// singular system.
func TestLadderExhaustionIsStructured(t *testing.T) {
	n := 8
	co := NewCoord(n)
	for i := 0; i < n; i++ {
		co.Add(i, i, 0)
	}
	a := co.ToCSR()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	before := NumericStats()
	err := NewSPD(a, n).Solve(b, x, nil)
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("err = %v, want ErrNumeric", err)
	}
	after := NumericStats()
	if after.NumericFailures <= before.NumericFailures {
		t.Fatalf("NumericFailures %d -> %d, want increase", before.NumericFailures, after.NumericFailures)
	}
}

// TestLadderConcurrentSolves: concurrent solves on one ladder without a
// direct rung share the lazily built IC(0) factor and land on the same
// bits as a serial solve.
func TestLadderConcurrentSolves(t *testing.T) {
	a := laplacian2D(40, 30)
	b := randVec(rand.New(rand.NewSource(6)), a.N)
	want := make([]float64, a.N)
	if err := NewSPD(a, -1).Solve(b, want, nil); err != nil {
		t.Fatal(err)
	}
	s := NewSPD(a, -1)
	xs := make([][]float64, 4)
	errs := make([]error, len(xs))
	ParForN(len(xs), len(xs), func(i int) {
		xs[i] = make([]float64, a.N)
		errs[i] = s.Solve(b, xs[i], nil)
	})
	for i, x := range xs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bitEqual(x, want) {
			t.Fatalf("concurrent solve %d differs from the serial solve", i)
		}
	}
}
