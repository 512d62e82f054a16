package fdm

import (
	"fmt"
	"math"

	"dsmtherm/internal/mathx"
)

// SheetSolver solves steady-state heat conduction on a plan-view chip
// sheet: an nx×ny grid of tiles coupled laterally through the substrate
// (sheetCond, W/K per square — conductivity × effective spreading
// thickness) and vertically to the package at ΔT = 0 through a per-area
// film conductance (sinkCond, W/(m²·K)). It is the thermal-map half of
// the chip-level electrothermal loop: the conduction matrix is
// temperature-independent, so it is assembled and factored once (banded
// Cholesky in the sheet's short-side order under mathx.CholEntryBudget,
// IC(0)-preconditioned CG otherwise — see mathx.SPD) and every
// Joule-power distribution costs two O(n·bw) triangular sweeps — the
// iteration-loop reuse the coupled fixed point leans on. Solve is not
// safe for concurrent use: its solves share one set of work vectors, so
// the loop's solves allocate nothing. SolveWith takes the caller's work
// vectors instead, so one factored solver can serve concurrent loops.
type SheetSolver struct {
	nx, ny  int
	spd     *mathx.SPD
	n       int
	scratch mathx.CGScratch
}

// NewSheetSolver assembles and factors the sheet conduction matrix for
// an nx×ny tile grid with tile pitches dx, dy (m). sheetCond may be 0
// (tiles decouple laterally); sinkCond must be positive — it is the
// Dirichlet anchor that keeps the matrix positive definite.
func NewSheetSolver(nx, ny int, dx, dy, sheetCond, sinkCond float64) (*SheetSolver, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("%w: sheet %dx%d too small", ErrInvalid, nx, ny)
	}
	if !(dx > 0) || !(dy > 0) || math.IsInf(dx, 0) || math.IsInf(dy, 0) {
		return nil, fmt.Errorf("%w: tile pitch %g x %g", ErrInvalid, dx, dy)
	}
	if !(sheetCond >= 0) || math.IsInf(sheetCond, 0) {
		return nil, fmt.Errorf("%w: sheet conductance %g", ErrInvalid, sheetCond)
	}
	if !(sinkCond > 0) || math.IsInf(sinkCond, 0) {
		return nil, fmt.Errorf("%w: sink conductance %g", ErrInvalid, sinkCond)
	}
	n := nx * ny
	gx := sheetCond * dy / dx
	gy := sheetCond * dx / dy
	gsink := sinkCond * dx * dy
	// The conduction matrix is the 5-point tile stencil plus a sink term
	// on every diagonal, so the CSR is built directly in ascending-column
	// order — no COO triplets and no assembly sort. This runs at coupled-
	// solve start, where allocation churn is most visible to concurrent
	// interactive traffic.
	a := &mathx.CSR{N: n, RowPtr: make([]int, n+1)}
	cols := make([]int, 0, 5*n)
	vals := make([]float64, 0, 5*n)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := j*nx + i
			diag := gsink
			if j > 0 {
				cols = append(cols, p-nx)
				vals = append(vals, -gy)
				diag += gy
			}
			if i > 0 {
				cols = append(cols, p-1)
				vals = append(vals, -gx)
				diag += gx
			}
			di := len(cols)
			cols = append(cols, p)
			vals = append(vals, 0)
			if i+1 < nx {
				cols = append(cols, p+1)
				vals = append(vals, -gx)
				diag += gx
			}
			if j+1 < ny {
				cols = append(cols, p+nx)
				vals = append(vals, -gy)
				diag += gy
			}
			vals[di] = diag
			a.RowPtr[p+1] = len(cols)
		}
	}
	a.ColIdx, a.Val = cols, vals
	return &SheetSolver{nx: nx, ny: ny, spd: mathx.NewSPD(a, mathx.CholEntryBudget/n), n: n}, nil
}

// Cells returns the unknown count nx·ny.
func (s *SheetSolver) Cells() int { return s.n }

// Direct reports whether the banded Cholesky fast path is active.
func (s *SheetSolver) Direct() bool { return s.spd.Direct() }

// Bytes estimates the memory the solver holds: its conduction matrix
// and factor.
func (s *SheetSolver) Bytes() int { return s.spd.Bytes() }

// Solve computes the tile temperature rises (K) for the given per-tile
// powers (W), row-major with stride nx, writing into out (power and out
// may alias). Deterministic at any worker count.
func (s *SheetSolver) Solve(power, out []float64) error {
	return s.SolveWith(power, out, &s.scratch)
}

// SolveWith is Solve with the caller's work vectors; it is safe for
// concurrent use with distinct out and scratch.
func (s *SheetSolver) SolveWith(power, out []float64, scratch *mathx.CGScratch) error {
	if len(power) != s.n || len(out) != s.n {
		return fmt.Errorf("%w: got %d powers and %d outputs for %d cells", ErrInvalid, len(power), len(out), s.n)
	}
	if err := s.spd.Solve(power, out, scratch); err != nil {
		return fmt.Errorf("fdm: sheet conduction: %w", err)
	}
	return nil
}
