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
//	factor rung → IC(0) CG → Jacobi CG → ErrNumeric
//
// The factor rung is a banded Cholesky solve, residual-verified, when
// the factor is fresh. After Refactor the factor is stale: the rung then
// runs CG preconditioned by it, warm-started from x, and rebuilds the
// factor for a verified direct solve only when that CG misses cgRtol
// within staleMaxIter iterations. A rebuild is not a step down; every
// step down is counted in NumericStats (/metrics resilience.numeric), a
// direct solution that fails its residual check never reaches a
// caller, and a solve that exhausts the ladder returns a structured
// ErrNumeric. faultinject.SiteMathxSolve makes the primary rung report
// failure so tests can walk the ladder on healthy systems.

const (
	// directRtol gates the direct rung: a banded Cholesky on these SPD
	// conduction matrices lands near machine precision (~1e-15
	// relative), so a residual above 1e-8 means the factor went bad for
	// this RHS (stale values, overflow, NaN contamination) and the CG
	// rungs take over.
	directRtol = 1e-8
	// cgRtol is the relative-residual target of every CG rung.
	cgRtol = 1e-12
	// staleMaxIter caps CG preconditioned by a stale factor. The
	// electrothermal loops restamp conductances by a few percent per
	// pass, which this CG answers in 5–7 iterations from the previous
	// pass's solution; a restamp that needs more has drifted far enough
	// that a rebuild, about a dozen sweeps' worth of flops, is cheaper.
	staleMaxIter = 16
)

// SPD solves A·x = b for one symmetric positive-definite matrix (rows in
// ascending column order) down the fallback ladder. The primary rung is
// the banded factor when a's band fits the caller's budget, and IC(0) CG
// otherwise. Solve is safe for concurrent use with distinct x and
// scratch; Refactor is not.
type SPD struct {
	a *CSR

	mu        sync.Mutex    // guards chol, cholFresh, ic and icFresh
	chol      *BandCholesky // nil: no factor rung
	cholFresh bool          // chol was factored from a's current values
	ic        *ic0          // built on first use; nil after a breakdown
	icFresh   bool          // ic (or its breakdown) reflects a's current values
}

// NewSPD prepares the ladder for a, whose values must already be
// stamped. When a's bandwidth in its best order fits maxBand (storage
// n·(bw+1) floats; callers pass CholEntryBudget/n), the banded factor is
// built now; a negative maxBand means no factor rung. The IC(0) factor
// is built from a's values the first time a CG rung needs it.
func NewSPD(a *CSR, maxBand int) *SPD {
	s := &SPD{a: a}
	if maxBand >= 0 {
		// A band over budget or a lost pivot only removes the factor
		// rung; the CG rungs still answer.
		s.chol, _ = NewBandCholesky(a, maxBand)
		s.cholFresh = true
	}
	return s
}

// NewSPDFactored prepares the ladder for a, whose values must already
// be stamped, from chol, a banded factor of exactly those values. chol
// may be shared by many SPDs, over matrices that each started from
// those values: an SPD only reads it, and a stale factor's rebuild
// writes a new one.
func NewSPDFactored(a *CSR, chol *BandCholesky) *SPD {
	return &SPD{a: a, chol: chol, cholFresh: true}
}

// Bytes estimates the memory the ladder holds: the matrix and its
// banded factor (an IC(0) factor, built only when a CG rung needs one,
// is not counted).
func (s *SPD) Bytes() int {
	chol, _ := s.factor()
	n := s.a.Bytes()
	if chol != nil {
		n += chol.Bytes()
	}
	return n
}

// Direct reports whether the banded factor rung is available.
func (s *SPD) Direct() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chol != nil
}

// Refactor tells the ladder that the caller restamped a's values in
// place (same sparsity pattern): the banded factor turns stale — a
// preconditioner until a solve needs it rebuilt — and the IC(0) factor
// is refreshed in its existing storage on next use.
func (s *SPD) Refactor() {
	s.mu.Lock()
	s.cholFresh = false
	s.icFresh = false
	s.mu.Unlock()
}

// factor returns the banded factor and whether it reflects a's current
// values.
func (s *SPD) factor() (*BandCholesky, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chol, s.cholFresh
}

// rebuild refactors a stale factor from a's current values. Concurrent
// solves that find the same stale factor rebuild it once; solves still
// reading the old one keep it. A lost pivot removes the factor rung.
func (s *SPD) rebuild(stale *BandCholesky) *BandCholesky {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chol == stale && !s.cholFresh {
		s.chol, _ = stale.refactor(s.a)
		s.cholFresh = true
	}
	return s.chol
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
	if scratch == nil {
		scratch = &CGScratch{}
	}
	chol, fresh := s.factor()
	jacobiOnly := false
	if faultinject.Inject(context.Background(), faultinject.SiteMathxSolve) != nil {
		// The primary rung reports failure: a factor rung, fresh or
		// stale, is skipped, and without one IC(0) is.
		fallbackSolves.Add(1)
		jacobiOnly = chol == nil
		chol = nil
	}
	if chol != nil && !fresh {
		if solveCG(s.a, b, x, cgRtol, staleMaxIter, chol, scratch).Converged {
			return checkSolution(x)
		}
		if chol = s.rebuild(chol); chol == nil {
			// The rebuild lost a pivot: step down, cold.
			fallbackSolves.Add(1)
			clear(x)
		}
	}
	if chol != nil {
		var tmp []float64
		if chol.perm != nil {
			tmp = grow(&scratch.t, s.a.N)
		}
		chol.Solve(b, x, tmp)
		// A NaN residual compares false here, so contaminated solutions
		// fall through with the genuinely inaccurate ones.
		if RelResidual(s.a, x, b, grow(&scratch.r, s.a.N)) <= directRtol {
			return nil
		}
		directRejects.Add(1)
		fallbackSolves.Add(1)
		clear(x)
	}
	var res CGResult
	if !jacobiOnly {
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
