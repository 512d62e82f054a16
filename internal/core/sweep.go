package core

import (
	"context"
	"fmt"

	"dsmtherm/internal/mathx"
)

// SweepPoint is one point of a parameter sweep.
type SweepPoint struct {
	// X is the swept parameter value (duty cycle r for SweepDutyCycle,
	// j0 in A/m² for SweepJ0).
	X float64
	Solution
}

// SweepDutyCycle solves the problem across the given duty cycles,
// reproducing the Figs. 2–3 horizontal axis. Each r must be in (0, 1].
func SweepDutyCycle(p Problem, rs []float64) ([]SweepPoint, error) {
	return SweepDutyCycleCtx(context.Background(), p, rs)
}

// SweepDutyCycleCtx is SweepDutyCycle with cancellation checked between
// sweep points and between root-search iterations within each point.
func SweepDutyCycleCtx(ctx context.Context, p Problem, rs []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(rs))
	for _, r := range rs {
		q := p
		q.R = r
		sol, err := SolveCtx(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at r=%g: %w", r, err)
		}
		out = append(out, SweepPoint{X: r, Solution: sol})
	}
	return out, nil
}

// SweepJ0 solves the problem across design-rule current densities (the
// Fig. 3 family parameter). Each j0 is in A/m².
func SweepJ0(p Problem, j0s []float64) ([]SweepPoint, error) {
	return SweepJ0Ctx(context.Background(), p, j0s)
}

// SweepJ0Ctx is SweepJ0 with cancellation checked between sweep points
// and between root-search iterations within each point.
func SweepJ0Ctx(ctx context.Context, p Problem, j0s []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(j0s))
	for _, j0 := range j0s {
		q := p
		q.J0 = j0
		sol, err := SolveCtx(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at j0=%g: %w", j0, err)
		}
		out = append(out, SweepPoint{X: j0, Solution: sol})
	}
	return out, nil
}

// SweepDutyCycleParallel is SweepDutyCycle with the points solved
// concurrently across the mathx worker pool. Every point is an
// independent scalar root search that writes only out[i]/errs[i], so
// results assemble in input order and match the serial sweep exactly at
// any worker count; on failure the lowest-index error is returned (again
// matching serial).
func SweepDutyCycleParallel(p Problem, rs []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(rs))
	errs := make([]error, len(rs))
	mathx.ParFor(len(rs), func(i int) {
		q := p
		q.R = rs[i]
		sol, err := Solve(q)
		if err != nil {
			errs[i] = fmt.Errorf("core: sweep at r=%g: %w", rs[i], err)
			return
		}
		out[i] = SweepPoint{X: rs[i], Solution: sol}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig2DutyCycles returns the log-spaced duty-cycle grid of Figs. 2–3
// (1e-4 … 1).
func Fig2DutyCycles(n int) []float64 { return mathx.Logspace(1e-4, 1, n) }

// Check verifies a proposed operating point (jpeak at duty cycle r)
// against the self-consistent limit, returning the margin
// jpeakLimit/jpeakOperating (> 1 means safe) and the limit itself.
func Check(p Problem, jpeakOperating float64) (margin float64, sol Solution, err error) {
	sol, err = Solve(p)
	if err != nil {
		return 0, Solution{}, err
	}
	if jpeakOperating <= 0 {
		return 0, sol, fmt.Errorf("%w: non-positive operating jpeak", ErrInvalid)
	}
	return sol.Jpeak / jpeakOperating, sol, nil
}
