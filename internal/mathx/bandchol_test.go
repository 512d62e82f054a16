package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestBandCholeskyMatchesCG: the direct solve agrees with a tightly
// converged PCG solution on the FDM-shaped Laplacian, factored in its
// reverse Cuthill–McKee order (the row-major numbering has band nx = 40).
func TestBandCholeskyMatchesCG(t *testing.T) {
	a := laplacian2D(40, 30)
	c, err := NewBandCholesky(a, a.N)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bandwidth() > 31 || c.perm == nil {
		t.Errorf("bandwidth = %d (permuted %t), want the ordered band ≤ 31", c.Bandwidth(), c.perm != nil)
	}
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, a.N)
	xd := make([]float64, a.N)
	c.Solve(b, xd, nil)
	xi := make([]float64, a.N)
	if res := SolveCG(a, b, xi, 1e-13, 10*a.N); !res.Converged {
		t.Fatal("reference CG did not converge")
	}
	for i := range xd {
		if math.Abs(xd[i]-xi[i]) > 1e-8*(1+math.Abs(xi[i])) {
			t.Fatalf("x[%d]: direct %v vs CG %v", i, xd[i], xi[i])
		}
	}
	// Residual of the direct solve itself.
	ax := make([]float64, a.N)
	a.MulVec(xd, ax)
	Axpy(-1, b, ax)
	if r := Norm2(ax) / Norm2(b); r > 1e-12 {
		t.Errorf("direct-solve relative residual %g", r)
	}
}

// TestBandCholeskySolveInPlace: b and x may alias.
func TestBandCholeskySolveInPlace(t *testing.T) {
	a := laplacian2D(12, 9)
	c, err := NewBandCholesky(a, a.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b := randVec(rng, a.N)
	want := make([]float64, a.N)
	c.Solve(b, want, nil)
	c.Solve(b, b, nil) // in place
	if !bitEqual(b, want) {
		t.Error("aliased solve differs from two-slice solve")
	}
}

// TestBandCholeskyBudget: the budget applies to the band of the best
// order. The 64×4 grid's natural band of 64 orders down to its short
// side and fits budget 8; the 64×16 grid's ordered band is still over
// it and is refused with ErrBand rather than silently paying the memory.
func TestBandCholeskyBudget(t *testing.T) {
	c, err := NewBandCholesky(laplacian2D(64, 4), 8)
	if err != nil {
		t.Fatalf("64×4 grid at budget 8: %v", err)
	}
	if c.Bandwidth() > 5 {
		t.Errorf("64×4 ordered band %d, want ≤ 5", c.Bandwidth())
	}
	if _, err := NewBandCholesky(laplacian2D(64, 16), 8); !errors.Is(err, ErrBand) {
		t.Fatalf("err = %v, want ErrBand (ordered band ≥ 16 > budget 8)", err)
	}
}

// TestBandCholeskyOrdersShortSide: the factor numbers a grid along its
// shorter side whichever way the caller lays it out, and keeps the
// natural order when that is already the short side.
func TestBandCholeskyOrdersShortSide(t *testing.T) {
	for _, tc := range []struct {
		nx, ny, maxBand int
		permuted        bool
	}{
		{40, 30, 31, true},
		{48, 32, 33, true},
		{30, 40, 30, false},
		{12, 12, 12, false},
	} {
		c, err := NewBandCholesky(laplacian2D(tc.nx, tc.ny), tc.nx*tc.ny)
		if err != nil {
			t.Fatal(err)
		}
		if c.Bandwidth() > tc.maxBand || (c.perm != nil) != tc.permuted {
			t.Errorf("%d×%d: band %d permuted %t, want ≤ %d permuted %t",
				tc.nx, tc.ny, c.Bandwidth(), c.perm != nil, tc.maxBand, tc.permuted)
		}
	}
}

// TestBandCholeskyPermutedSolveAllocationFree: with caller scratch a
// permuted solve allocates nothing, and aliased b and x give the same
// bits as distinct slices.
func TestBandCholeskyPermutedSolveAllocationFree(t *testing.T) {
	a := laplacian2D(48, 32)
	c, err := NewBandCholesky(a, a.N)
	if err != nil {
		t.Fatal(err)
	}
	if c.perm == nil {
		t.Fatal("48×32 grid must factor in a permuted order")
	}
	b := randVec(rand.New(rand.NewSource(7)), a.N)
	x := make([]float64, a.N)
	tmp := make([]float64, a.N)
	if allocs := testing.AllocsPerRun(10, func() { c.Solve(b, x, tmp) }); allocs != 0 {
		t.Fatalf("%.0f allocs per permuted solve, want 0", allocs)
	}
	if rr := RelResidual(a, x, b, nil); rr > 1e-12 {
		t.Fatalf("permuted solve residual %g", rr)
	}
	c.Solve(b, b, tmp)
	if !bitEqual(b, x) {
		t.Error("aliased permuted solve differs from two-slice solve")
	}
}

// TestBandCholeskyNotSPD: an indefinite matrix fails at a pivot instead
// of producing NaNs.
func TestBandCholeskyNotSPD(t *testing.T) {
	co := NewCoord(3)
	co.Add(0, 0, 1)
	co.Add(1, 1, -2) // negative pivot
	co.Add(2, 2, 1)
	if _, err := NewBandCholesky(co.ToCSR(), 3); !errors.Is(err, ErrBand) {
		t.Fatalf("err = %v, want ErrBand", err)
	}
}
