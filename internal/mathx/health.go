package mathx

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Numeric health: the backbone's solvers must never hand a NaN field or
// a silently diverged solution to a signoff verdict. This file holds
// the structured failure sentinel, the scan/residual helpers the SPD
// solve ladder is built from, and the process-wide counters the server
// exports under /metrics.resilience.numeric.

// ErrNumeric is the structured sentinel wrapped by every numeric-health
// failure: NaN/Inf contamination, CG divergence or stagnation, a direct
// solve whose residual check fails, a fixed point that will not
// converge. The serving layer classifies it (HTTP 422 — the inputs are
// well-formed but numerically pathological, so retrying the identical
// request recomputes the identical pathology) and the job supervisor
// quarantines chunks that carry it rather than retrying them.
var ErrNumeric = errors.New("mathx: numeric failure")

// CG divergence / stagnation thresholds (see solveCG).
const (
	// cgDivergeLimit: a relative residual this far above 1 means the
	// iteration is blowing up, not converging — no SPD system recovers
	// twelve orders of magnitude.
	cgDivergeLimit = 1e12
	// cgStagnationWindow: iterations without a new best residual before
	// the solve is declared stagnant. CG residuals oscillate but trend
	// down on SPD systems; hundreds of iterations with zero net progress
	// means breakdown (lost orthogonality, effectively singular A).
	cgStagnationWindow = 250
)

var (
	nonFiniteScans  atomic.Uint64
	cgDivergences   atomic.Uint64
	cgStagnations   atomic.Uint64
	directRejects   atomic.Uint64
	fallbackSolves  atomic.Uint64
	numericFailures atomic.Uint64
)

// NumericStatsSnapshot is the numeric-health counter block of the
// /metrics document.
type NumericStatsSnapshot struct {
	// NonFiniteScans counts finite-scans that found NaN/Inf output.
	NonFiniteScans uint64 `json:"nonFiniteScans"`
	// CGDivergences / CGStagnations count CG solves cut short by the
	// divergence and stagnation detectors.
	CGDivergences uint64 `json:"cgDivergences"`
	CGStagnations uint64 `json:"cgStagnations"`
	// DirectRejects counts direct (BandCholesky) solves whose residual
	// verification failed, forcing the CG rung of the ladder.
	DirectRejects uint64 `json:"directRejects"`
	// FallbackSolves counts solves that left their primary path for a
	// lower ladder rung (direct → IC(0) CG → Jacobi CG).
	FallbackSolves uint64 `json:"fallbackSolves"`
	// NumericFailures counts solves that exhausted the ladder and
	// surfaced ErrNumeric.
	NumericFailures uint64 `json:"numericFailures"`
}

// NumericStats snapshots the process-wide numeric-health counters.
func NumericStats() NumericStatsSnapshot {
	return NumericStatsSnapshot{
		NonFiniteScans:  nonFiniteScans.Load(),
		CGDivergences:   cgDivergences.Load(),
		CGStagnations:   cgStagnations.Load(),
		DirectRejects:   directRejects.Load(),
		FallbackSolves:  fallbackSolves.Load(),
		NumericFailures: numericFailures.Load(),
	}
}

// RecordNumericFailure counts one numeric failure detected outside the
// solve ladder (a coupled fixed point's non-finite field).
func RecordNumericFailure() { numericFailures.Add(1) }

// FirstNonFinite returns the index of the first NaN or Inf in xs, or −1
// when every entry is finite.
func FirstNonFinite(xs []float64) int {
	for i, v := range xs {
		// IsNaN || IsInf without two calls: NaN and ±Inf are exactly the
		// values whose difference from themselves is not zero.
		if math.IsNaN(v - v) {
			return i
		}
	}
	return -1
}

// CheckFinite scans xs and returns a structured ErrNumeric naming the
// first offending index when the scan finds NaN/Inf; nil otherwise.
// what names the vector in the error ("temperature field", "IR drop").
func CheckFinite(what string, xs []float64) error {
	i := FirstNonFinite(xs)
	if i < 0 {
		return nil
	}
	nonFiniteScans.Add(1)
	return fmt.Errorf("%w: non-finite %s (entry %d = %g)", ErrNumeric, what, i, xs[i])
}

// RelResidual computes the relative residual ‖b − A·x‖₂ / ‖b‖₂ of a
// candidate solution, the verification step behind the ladder's direct
// rung. scratch, when non-nil and long enough, avoids the work-vector
// allocation. A zero b returns the absolute residual norm; a NaN
// anywhere propagates into the result (callers treat non-finite as
// failed verification).
func RelResidual(a *CSR, x, b, scratch []float64) float64 {
	n := a.N
	var r []float64
	if cap(scratch) >= n {
		r = scratch[:n]
	} else {
		r = make([]float64, n)
	}
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rn := Norm2(r)
	bn := Norm2(b)
	if bn == 0 {
		return rn
	}
	return rn / bn
}
