package mathx

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dsmtherm/internal/faultinject"
)

// The solve-ladder tests. Each rung has a test that fails without it:
// the stale-factor rung (a small restamp answered without a rebuild),
// its rebuild (a large restamp answered directly), the direct rung's
// residual check (restamped values the ladder was not told about),
// direct → IC(0) (the same test counts exactly one step down), IC(0) →
// Jacobi (an SPD matrix on which IC(0) breaks down) and exhaustion →
// ErrNumeric. The counters are process-wide, so the exact-delta
// assertions rely on no test in this package running in parallel with
// them.

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

// scaleEdges restamps a grid Laplacian in place: every edge (i, j) with
// scale(i, j) ≠ 1 has its conductance multiplied by it, diagonals
// included, so a stays a weighted Laplacian with the same pattern.
func scaleEdges(a *CSR, scale func(i, j int) float64) {
	for i := 0; i < a.N; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			f := scale(i, j)
			if j <= i || f == 1 {
				continue
			}
			d := (f - 1) * -a.Val[p]
			a.Val[p] *= f
			a.Val[a.Slot(j, i)] *= f
			a.Val[a.Slot(i, i)] += d
			a.Val[a.Slot(j, j)] += d
		}
	}
}

// staleState reports the ladder's banded factor and whether it is fresh.
func staleState(s *SPD) (*BandCholesky, bool) { return s.factor() }

// TestLadderStaleFactorAnswersSmallRestamp: after a restamp of a few
// percent and Refactor, the old factor preconditions CG to cgRtol from
// the previous solution. Nothing is rebuilt and nothing steps down.
func TestLadderStaleFactorAnswersSmallRestamp(t *testing.T) {
	a := laplacian2D(48, 32)
	s := NewSPD(a, CholEntryBudget/a.N)
	b := randVec(rand.New(rand.NewSource(9)), a.N)
	x := make([]float64, a.N)
	var scratch CGScratch
	if err := s.Solve(b, x, &scratch); err != nil {
		t.Fatal(err)
	}
	chol, _ := staleState(s)
	scaleEdges(a, func(i, _ int) float64 { return 1 + 0.04*float64(i%7)/7 })
	s.Refactor()
	before := NumericStats()
	if err := s.Solve(b, x, &scratch); err != nil {
		t.Fatal(err)
	}
	if after := NumericStats(); after != before {
		t.Fatalf("stale-factor solve moved the ladder counters: %+v -> %+v", before, after)
	}
	if got, fresh := staleState(s); got != chol || fresh {
		t.Fatalf("stale rung rebuilt the factor (same %t, fresh %t)", got == chol, fresh)
	}
	if rr := RelResidual(a, x, b, nil); rr > cgRtol {
		t.Fatalf("stale-factor solve residual %g > %g", rr, cgRtol)
	}
}

// TestLadderStaleFactorRebuildsOnLargeRestamp: a restamp that scales a
// block of conductances ×10 is beyond what the old factor preconditions
// within staleMaxIter, so the rung rebuilds the factor and answers with
// a verified direct solve, still without stepping down.
func TestLadderStaleFactorRebuildsOnLargeRestamp(t *testing.T) {
	a := laplacian2D(48, 32)
	s := NewSPD(a, CholEntryBudget/a.N)
	b := randVec(rand.New(rand.NewSource(10)), a.N)
	x := make([]float64, a.N)
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	chol, _ := staleState(s)
	scaleEdges(a, func(i, j int) float64 {
		if i%48 < 16 && j%48 < 16 {
			return 10
		}
		return 1
	})
	s.Refactor()
	before := NumericStats()
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	if after := NumericStats(); after.DirectRejects != before.DirectRejects || after.FallbackSolves != before.FallbackSolves {
		t.Fatalf("rebuilt solve left its rung: %+v -> %+v", before, after)
	}
	got, fresh := staleState(s)
	if got == chol || !fresh {
		t.Fatalf("large restamp kept the stale factor (rebuilt %t, fresh %t)", got != chol, fresh)
	}
	want := make([]float64, a.N)
	got.Solve(b, want, nil)
	if !bitEqual(x, want) {
		t.Fatal("answer is not the rebuilt factor's direct solve")
	}
	if rr := RelResidual(a, x, b, nil); rr > 1e-12 {
		t.Fatalf("rebuilt direct solve residual %g", rr)
	}
}

// TestLadderConcurrentSolvesAfterRefactor: solves racing on one stale
// factor share one rebuild (under the SPD's mutex, race-clean) and land
// on the bits of a serial solve, for a restamp the stale rung answers
// and for one that forces the rebuild.
func TestLadderConcurrentSolvesAfterRefactor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{{"stale", 1.03}, {"rebuild", 10}} {
		t.Run(tc.name, func(t *testing.T) {
			restamp := func(a *CSR) {
				scaleEdges(a, func(i, j int) float64 {
					if i%40 < 12 && j%40 < 12 {
						return tc.scale
					}
					return 1
				})
			}
			b := randVec(rand.New(rand.NewSource(11)), 40*30)
			ref := laplacian2D(40, 30)
			rs := NewSPD(ref, CholEntryBudget/ref.N)
			restamp(ref)
			rs.Refactor()
			want := make([]float64, ref.N)
			if err := rs.Solve(b, want, nil); err != nil {
				t.Fatal(err)
			}
			a := laplacian2D(40, 30)
			s := NewSPD(a, CholEntryBudget/a.N)
			chol, _ := staleState(s)
			restamp(a)
			s.Refactor()
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
			if got, _ := staleState(s); (got != chol) != (tc.name == "rebuild") {
				t.Fatalf("factor rebuilt = %t", got != chol)
			}
		})
	}
}

// TestLadderFaultSkipsFactorRung: the injected primary-path failure
// skips the factor rung whether its factor is fresh or stale: IC(0)
// answers, one step down is counted, and the stale factor is not
// rebuilt.
func TestLadderFaultSkipsFactorRung(t *testing.T) {
	a := laplacian2D(30, 20)
	s := NewSPD(a, CholEntryBudget/a.N)
	chol, _ := staleState(s)
	b := randVec(rand.New(rand.NewSource(12)), a.N)
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	for _, stage := range []string{"fresh", "stale"} {
		if stage == "stale" {
			scaleEdges(a, func(int, int) float64 { return 1.02 })
			s.Refactor()
		}
		x := make([]float64, a.N)
		before := NumericStats()
		if err := s.Solve(b, x, nil); err != nil {
			t.Fatal(err)
		}
		after := NumericStats()
		if d := after.FallbackSolves - before.FallbackSolves; d != 1 || after.DirectRejects != before.DirectRejects {
			t.Fatalf("%s: FallbackSolves +%d DirectRejects +%d, want +1 and +0 (factor rung → IC(0))",
				stage, d, after.DirectRejects-before.DirectRejects)
		}
		if got, _ := staleState(s); got != chol {
			t.Fatalf("%s: the skipped factor rung rebuilt its factor", stage)
		}
		if rr := RelResidual(a, x, b, nil); rr > 1e-10 {
			t.Fatalf("%s: IC(0) residual %g", stage, rr)
		}
	}
}

// TestLadderRefactorRefreshesFactors: after an in-place restamp,
// Refactor makes the factor rung exact again, and refreshes the IC(0)
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

// TestLadderSharedFactorUntouchedByRebuild: an SPD that starts from a
// shared factor of its values solves as one that factored them itself,
// and a restamp large enough to force the stale-factor rebuild writes
// a new factor: the shared one keeps its bytes.
func TestLadderSharedFactorUntouchedByRebuild(t *testing.T) {
	a := laplacian2D(48, 32)
	shared, err := NewBandCholesky(a, CholEntryBudget/a.N)
	if err != nil {
		t.Fatal(err)
	}
	l, first := append([]float64(nil), shared.l...), append([]int(nil), shared.first...)
	values := func() *CSR { // a session's matrix: the pattern, its own values
		c := *a
		c.Val = append([]float64(nil), a.Val...)
		return &c
	}
	a1 := values()
	s := NewSPDFactored(a1, shared)
	b := randVec(rand.New(rand.NewSource(11)), a.N)
	x, want := make([]float64, a.N), make([]float64, a.N)
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	if err := NewSPD(values(), CholEntryBudget/a.N).Solve(b, want, nil); err != nil {
		t.Fatal(err)
	}
	if !bitEqual(x, want) {
		t.Fatal("the shared factor's solve differs from a private factor's")
	}
	scaleEdges(a1, func(i, j int) float64 {
		if i%48 < 16 && j%48 < 16 {
			return 10
		}
		return 1
	})
	s.Refactor()
	if err := s.Solve(b, x, nil); err != nil {
		t.Fatal(err)
	}
	if got, fresh := staleState(s); got == shared || !fresh {
		t.Fatalf("the restamp did not rebuild (rebuilt %t, fresh %t)", got != shared, fresh)
	}
	if !bitEqual(shared.l, l) || !slices.Equal(shared.first, first) {
		t.Fatal("the rebuild wrote the shared factor")
	}
}
