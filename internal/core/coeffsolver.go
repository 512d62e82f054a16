package core

import (
	"fmt"
	"math"

	"dsmtherm/internal/mathx"
)

// CoeffSolver solves Eq. (13) in coefficient form repeatedly with
// reusable state — the entry point for the Monte Carlo batch kernels,
// which restamp P in place for every sample and solve again. Two
// things distinguish it from SolveCoeff:
//
//   - Zero steady-state allocations: the residual closure is built once
//     at construction (capturing the solver, not the problem), so a
//     kernel evaluating millions of samples never touches the heap.
//   - Warm-started brackets: Solve takes a root hint (typically the
//     nominal solution's Tm for the same level) and searches a narrow
//     bracket around it first, widening geometrically until the root is
//     straddled and falling back to the full [Tref, Tref+ceiling]
//     interval. Near-nominal perturbations resolve in a bracket tens of
//     kelvin wide instead of 2000 K.
//
// Determinism: the bracket sequence is a pure function of (P, hint) —
// it never depends on previous calls, worker identity, or scheduling —
// so evaluations are bit-identical however the sample stream is
// partitioned. Callers preserving that invariant must derive hints
// from per-call-stable inputs only (e.g. the level's nominal Tm),
// never from a neighboring sample's result.
//
// A CoeffSolver is not safe for concurrent use; give each worker its
// own.
type CoeffSolver struct {
	// P is the problem to solve. Callers restamp it in place between
	// Solve calls.
	P CoeffProblem

	g func(tm float64) float64
}

// NewCoeffSolver returns a reusable solver.
func NewCoeffSolver() *CoeffSolver {
	s := &CoeffSolver{}
	// g(Tm) = heat-limited j²rms − EM-limited j²rms, same residual as
	// SolveCoeffCtx (minus the fault-injection site: batch kernels are
	// driven by the jobs-layer sites instead).
	s.g = func(tm float64) float64 {
		return s.P.heatLimitedJrmsSq(tm) - s.P.emLimitedJrmsSq(tm)
	}
	return s
}

// warmHalfWidth is the initial half-width (K) of the warm bracket
// around the hint. Process perturbations in the lognormal small-spread
// regime move the self-consistent Tm by at most a few tens of kelvin,
// so the first bracket almost always straddles the root; each miss
// widens it 4x until it spans the full search interval.
const warmHalfWidth = 25.0

// Solve computes the self-consistent solution for the current P. A
// hint inside (Tref, Tref+ceiling) warm-starts the bracket; any other
// value (0, NaN) selects the full interval, making Solve(0) exactly
// SolveCoeff minus the allocations.
func (s *CoeffSolver) Solve(hint float64) (Solution, error) {
	if err := s.P.Validate(); err != nil {
		return Solution{}, err
	}
	tref := s.P.tref()
	lo := tref * (1 + 1e-12)
	hi := tref + TCeilingAboveRef
	a, b := lo, hi
	bracketed := false
	if hint > lo && hint < hi {
		for w := warmHalfWidth; ; w *= 4 {
			wa, wb := hint-w, hint+w
			if wa < lo {
				wa = lo
			}
			if wb > hi {
				wb = hi
			}
			if s.g(wa) < 0 && s.g(wb) > 0 {
				a, b, bracketed = wa, wb, true
				break
			}
			if wa == lo && wb == hi {
				break
			}
		}
	}
	if !bracketed && s.g(hi) < 0 {
		return Solution{}, ErrNoSolution
	}
	tm, err := mathx.Brent(s.g, a, b, 1e-9)
	if err != nil {
		return Solution{}, fmt.Errorf("%w: root search: %w", ErrNoSolution, err)
	}
	return s.P.solutionAt(tm), nil
}

// solutionAt assembles the Solution for a solved metal temperature —
// shared by SolveCoeffCtx and CoeffSolver so both paths report
// identical derived quantities.
func (p *CoeffProblem) solutionAt(tm float64) Solution {
	jrms := math.Sqrt(p.heatLimitedJrmsSq(tm))
	sol := Solution{
		Tm:          tm,
		DeltaT:      tm - p.tref(),
		Jrms:        jrms,
		Jpeak:       jrms / math.Sqrt(p.R),
		Javg:        math.Sqrt(p.R) * jrms,
		EMOnlyJpeak: p.J0 / p.R,
	}
	sol.DeratingVsNaive = sol.Jpeak / sol.EMOnlyJpeak
	return sol
}
