package powergrid

import (
	"context"
	"errors"
	"math"
	"testing"

	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
)

// testGrid is a 9×9 mesh on the 0.25 µm node's top two levels, 200 µm
// pitch, 4× straps, pads at the four corners.
func testGrid() *Grid {
	return &Grid{
		Tech:          ntrs.N250(),
		HLevel:        5,
		VLevel:        6,
		Nx:            9,
		Ny:            9,
		PitchX:        phys.Microns(200),
		PitchY:        phys.Microns(200),
		WidthMultiple: 4,
		Pads:          []Node{{0, 0}, {8, 0}, {0, 8}, {8, 8}},
	}
}

func TestValidate(t *testing.T) {
	g := testGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Grid){
		func(g *Grid) { g.Tech = nil },
		func(g *Grid) { g.HLevel = 0 },
		func(g *Grid) { g.Nx = 1 },
		func(g *Grid) { g.PitchX = 0 },
		func(g *Grid) { g.WidthMultiple = 0.5 },
		func(g *Grid) { g.Pads = nil },
		func(g *Grid) { g.Pads = []Node{{99, 0}} },
	}
	for i, mutate := range bad {
		g := testGrid()
		mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestCenterLoadSymmetry(t *testing.T) {
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.2}}
	sol, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Worst drop at the load, positive.
	if sol.WorstDropNode != (Node{4, 4}) {
		t.Errorf("worst drop at %v, want center", sol.WorstDropNode)
	}
	if sol.WorstDrop <= 0 {
		t.Fatal("drop must be positive")
	}
	// Four-fold symmetry of the drop map.
	for j := 0; j < 9; j++ {
		for i := 0; i < 9; i++ {
			a := sol.Drop[j][i]
			b := sol.Drop[j][8-i]
			c := sol.Drop[8-j][i]
			if math.Abs(a-b) > 1e-9 || math.Abs(a-c) > 1e-9 {
				t.Fatalf("asymmetry at (%d,%d): %v %v %v", i, j, a, b, c)
			}
		}
	}
	// Pads are at zero drop.
	if sol.Drop[0][0] != 0 || sol.Drop[8][8] != 0 {
		t.Error("pad drop must be 0")
	}
}

func TestPadCurrentsBalanceLoad(t *testing.T) {
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.2}, {Node{2, 6}, 0.1}, {Node{7, 1}, 0.05}}
	sol, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pads := sol.PadCurrents()
	sum := 0.0
	for _, i := range pads {
		sum += i
	}
	if math.Abs(sum-TotalLoad(loads))/TotalLoad(loads) > 1e-6 {
		t.Errorf("pad currents sum to %v, want %v", sum, TotalLoad(loads))
	}
	// Every pad delivers a nonnegative current for sink-only loads.
	for p, i := range pads {
		if i < -1e-9 {
			t.Errorf("pad %v absorbs current %v", p, i)
		}
	}
}

func TestOneDimensionalLadderAnalytic(t *testing.T) {
	// A 2-row grid with pads on the left edge and a single load at the
	// far right of the bottom row behaves like two parallel ladders; an
	// easier exact check: 2×N grid, pads at both left nodes, load I at
	// (N−1, 0) and (N−1, 1) equally → by symmetry no vertical current,
	// each row is a series chain: drop = I/2 · Σ R_h · k.
	g := testGrid()
	g.Ny = 2
	g.Nx = 5
	g.Pads = []Node{{0, 0}, {0, 1}}
	loads := []Load{{Node{4, 0}, 0.05}, {Node{4, 1}, 0.05}}
	sol, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Horizontal branch resistance at Tref.
	layer := g.Tech.Layers[g.HLevel-1]
	area := layer.Width * 4 * layer.Thick
	rho := g.Tech.Metal.Resistivity(phys.CToK(100))
	rBranch := rho * g.PitchX / area
	want := 0.05 * rBranch * 4 // full current through each of 4 series branches
	got := sol.Drop[0][4]
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("ladder drop = %v, want %v", got, want)
	}
}

func TestWiderStrapsReduceDrop(t *testing.T) {
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.3}}
	thin, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := testGrid()
	g2.WidthMultiple = 8
	wide, err := g2.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.WorstDrop >= thin.WorstDrop/1.8 {
		t.Errorf("doubling width should ≈halve the drop: %v vs %v", wide.WorstDrop, thin.WorstDrop)
	}
	if wide.MaxJ >= thin.MaxJ {
		t.Error("wider straps must carry lower density")
	}
}

func TestElectrothermalWorsensDrop(t *testing.T) {
	// Heavy load: the hot grid sags more than the cold solve predicts.
	g := testGrid()
	loads := []Load{{Node{4, 4}, 1.5}}
	cold, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := g.Solve(loads, SolveOpts{Electrothermal: true})
	if err != nil {
		t.Fatal(err)
	}
	if hot.WorstDrop <= cold.WorstDrop {
		t.Errorf("electrothermal drop %v should exceed cold %v", hot.WorstDrop, cold.WorstDrop)
	}
	if hot.HottestTm <= phys.CToK(100) {
		t.Error("hottest strap must be above Tref")
	}
	if hot.Iterations < 2 {
		t.Error("feedback loop should iterate")
	}
	// A light load barely heats: the two solves agree.
	light := []Load{{Node{4, 4}, 0.01}}
	c2, _ := g.Solve(light, SolveOpts{})
	h2, _ := g.Solve(light, SolveOpts{Electrothermal: true})
	if math.Abs(h2.WorstDrop-c2.WorstDrop)/c2.WorstDrop > 0.01 {
		t.Error("light-load electrothermal correction should be negligible")
	}
}

func TestSolveValidation(t *testing.T) {
	g := testGrid()
	if _, err := g.Solve([]Load{{Node{99, 0}, 1}}, SolveOpts{}); err == nil {
		t.Error("out-of-range load must fail")
	}
	if _, err := g.Solve([]Load{{Node{1, 1}, -1}}, SolveOpts{}); err == nil {
		t.Error("negative load must fail")
	}
	bad := testGrid()
	bad.Pads = nil
	if _, err := bad.Solve(nil, SolveOpts{}); err == nil {
		t.Error("invalid grid must fail")
	}
}

func TestLoadAtPadIsFree(t *testing.T) {
	// A load placed on a pad node draws straight from the supply: no
	// drop anywhere.
	g := testGrid()
	sol, err := g.Solve([]Load{{Node{0, 0}, 1}}, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WorstDrop > 1e-12 {
		t.Errorf("pad-sited load should cause no drop, got %v", sol.WorstDrop)
	}
}

func TestSolveCtxAlreadyCancelled(t *testing.T) {
	// Regression: the electrothermal fixed-point loop used to be
	// uncancellable. An already-cancelled ctx must stop before the
	// first nodal pass runs.
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.SolveCtx(ctx, []Load{{Node{4, 4}, 0.5}}, SolveOpts{Electrothermal: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveNegativeMaxIter(t *testing.T) {
	g := testGrid()
	_, err := g.Solve([]Load{{Node{4, 4}, 0.5}}, SolveOpts{Electrothermal: true, MaxIter: -1})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestNodalReuseMatchesSolve(t *testing.T) {
	// A Nodal session solved twice at the same temperatures must agree
	// with the one-shot Solve path bit-for-bit on the second call too
	// (warm starting may only change the iteration count, not the
	// converged answer beyond rtol).
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.5}, {Node{2, 6}, 0.25}}
	want, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := g.NewNodal(loads)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nd.NumBranches())
	for i := range temps {
		temps[i] = phys.CToK(100)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := nd.Solve(context.Background(), temps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.WorstDrop-want.WorstDrop) > 1e-9 {
			t.Fatalf("pass %d: WorstDrop %v vs Solve %v", pass, got.WorstDrop, want.WorstDrop)
		}
	}
	if _, err := nd.Solve(context.Background(), temps[:3]); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short temps: err = %v, want ErrInvalid", err)
	}
}

// TestSolveIntoAllocationFree pins the electrothermal pass at zero
// allocations: after the first pass builds the IC(0) factor, each
// restamp refactors it in place and the CG scratch, warm start and
// Solution are reused.
func TestSolveIntoAllocationFree(t *testing.T) {
	g := testGrid()
	nd, err := g.NewNodal([]Load{{Node{4, 4}, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, nd.NumBranches())
	for i := range temps {
		temps[i] = phys.CToK(100)
	}
	sol, err := nd.SolveInto(context.Background(), temps, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		temps[0] += 1 // a new temperature: restamp, refactor, re-solve
		if sol, err = nd.SolveInto(context.Background(), temps, sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocs per pass, want 0", allocs)
	}
}

// TestBranchesOneAllocation: the strap count is known from the mesh, so
// enumerating the straps allocates their slice once instead of regrowing
// it; every NewNodal pays this on its largest per-grid slice.
func TestBranchesOneAllocation(t *testing.T) {
	g := testGrid()
	want := g.Ny*(g.Nx-1) + g.Nx*(g.Ny-1)
	if n := len(g.Branches()); n != want {
		t.Fatalf("%d branches, want %d", n, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = g.Branches() }); allocs != 1 {
		t.Fatalf("%.0f allocations per Branches call, want 1", allocs)
	}
}
