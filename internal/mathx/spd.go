package mathx

import (
	"context"
	"fmt"
	"sync"

	"dsmtherm/internal/faultinject"
)

// The solve ladder. Every grid solve — the fdm cross-section and its
// transient, the plan-view thermal sheet, the power-grid IR drop — runs
// through SPD, so one policy decides how a solve degrades:
//
//	direct (banded Cholesky, residual-verified) → IC(0) CG → Jacobi CG → ErrNumeric
//
// Every step down is counted in NumericStats (/metrics
// resilience.numeric), a direct solution that fails its residual check
// never reaches a caller, and a solve that exhausts the ladder returns
// a structured ErrNumeric. faultinject.SiteMathxSolve makes the primary
// rung report failure so tests can walk the ladder on healthy systems.

const (
	// directRtol gates the direct rung: a banded Cholesky on these SPD
	// conduction matrices lands near machine precision (~1e-15
	// relative), so a residual above 1e-8 means the factor went bad for
	// this RHS (stale values, overflow, NaN contamination) and the CG
	// rungs take over.
	directRtol = 1e-8
	// cgRtol is the relative-residual target of both CG rungs.
	cgRtol = 1e-12
)

// SPD solves A·x = b for one symmetric positive-definite matrix (rows in
// ascending column order) down the fallback ladder. The primary rung is
// the banded Cholesky solve when a's band fits the caller's budget, and
// IC(0) CG otherwise. Solve is safe for concurrent use with distinct x
// and scratch; Refactor is not.
type SPD struct {
	a    *CSR
	chol *BandCholesky // nil: no direct rung

	mu      sync.Mutex // guards ic and icFresh
	ic      *ic0       // built on first use; nil after a breakdown
	icFresh bool       // ic (or its breakdown) reflects a's current values
}

// NewSPD prepares the ladder for a. When a's bandwidth fits maxBand
// (storage n·(bw+1) floats), the banded factor is built now; a negative
// maxBand means no direct rung. The IC(0) factor is built from a's
// values the first time a CG rung needs it.
func NewSPD(a *CSR, maxBand int) *SPD {
	s := &SPD{a: a}
	if maxBand >= 0 {
		// A band over budget or a lost pivot only removes the direct
		// rung; the CG rungs still answer.
		s.chol, _ = NewBandCholesky(a, maxBand)
	}
	return s
}

// Direct reports whether the banded Cholesky rung is available.
func (s *SPD) Direct() bool { return s.chol != nil }

// Refactor rereads a after the caller restamps its values in place
// (same sparsity pattern): the banded factor is rebuilt now, the IC(0)
// factor in its existing storage on next use.
func (s *SPD) Refactor() {
	if s.chol != nil {
		s.chol, _ = NewBandCholesky(s.a, s.chol.bw)
	}
	s.mu.Lock()
	s.icFresh = false
	s.mu.Unlock()
}

// precond returns the IC(0) factor of a's current values, or nil when
// the incomplete factorization breaks down.
func (s *SPD) precond() *ic0 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.icFresh {
		s.icFresh = true
		if s.ic == nil {
			s.ic, _ = newIC0(s.a) // breakdown leaves nil: Jacobi answers
		} else if s.ic.refactor(s.a) != nil {
			s.ic = nil
		}
	}
	return s.ic
}

// Solve writes the solution of A·x = b into x; b and x may alias. On
// entry x is the warm start of the first CG rung that runs, and a rung
// that fails restarts the next one cold. scratch holds the work vectors
// (nil allocates them per call). Any error wraps ErrNumeric.
func (s *SPD) Solve(b, x []float64, scratch *CGScratch) error {
	if len(b) > 0 && len(x) > 0 && &b[0] == &x[0] {
		// Residual verification and the CG rungs both need the original
		// RHS after x is overwritten, so aliased calls get a private copy.
		b = append([]float64(nil), b...)
	}
	rung := 1 // 0 direct, 1 IC(0) CG, 2 Jacobi CG
	if s.chol != nil {
		rung = 0
	}
	if faultinject.Inject(context.Background(), faultinject.SiteMathxSolve) != nil {
		fallbackSolves.Add(1)
		rung++
	}
	if rung == 0 {
		s.chol.Solve(b, x)
		var r []float64
		if scratch != nil {
			scratch.resize(s.a.N)
			r = scratch.r
		}
		// A NaN residual compares false here, so contaminated solutions
		// fall through with the genuinely inaccurate ones.
		if RelResidual(s.a, x, b, r) <= directRtol {
			return nil
		}
		directRejects.Add(1)
		fallbackSolves.Add(1)
		clear(x)
		rung = 1
	}
	if scratch == nil {
		scratch = &CGScratch{}
	}
	var res CGResult
	if rung == 1 {
		if ic := s.precond(); ic != nil {
			if res = solveCG(s.a, b, x, cgRtol, 0, ic, scratch); res.Converged {
				return checkSolution(x)
			}
		}
		// The Jacobi rung restarts cold: the failed rung may have left
		// NaN in x, which would poison a warm start.
		fallbackSolves.Add(1)
		clear(x)
	}
	if res = solveCG(s.a, b, x, cgRtol, 0, newJacobi(s.a), scratch); res.Converged {
		return checkSolution(x)
	}
	numericFailures.Add(1)
	return fmt.Errorf("%w: solve exhausted the fallback ladder (residual %g after %d iterations, diverged=%v stagnated=%v)",
		ErrNumeric, res.Residual, res.Iterations, res.Diverged, res.Stagnated)
}

// checkSolution fails a converged CG solution that is not finite.
func checkSolution(x []float64) error {
	if err := CheckFinite("solution", x); err != nil {
		numericFailures.Add(1)
		return err
	}
	return nil
}
