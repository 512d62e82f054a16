package fdm

import (
	"fmt"

	"dsmtherm/internal/mathx"
)

// Transient is a time-dependent solution of the 2-D heat equation
//
//	ρc·∂T/∂t = ∇·(k∇T) + q
//
// on the array cross-section, integrated implicitly (backward Euler; the
// fixed system matrix is band-factorized once so each step is a direct
// solve, with the mathx.SPD ladder's CG rungs as the fallback). It
// serves two purposes: validating the lumped §6 ESD heat-balance model's
// boundary-layer loss term against full 2-D conduction, and studying how
// fast an array approaches its steady state after a power step.
type Transient struct {
	// Times are the sample instants (s), starting at 0.
	Times []float64
	// LineDT[ref][k] is the area-averaged temperature rise of the line at
	// Times[k].
	LineDT map[LineRef][]float64
	// MaxDT[k] is the hottest cell at Times[k].
	MaxDT []float64
	// Final is the field at the last instant.
	Final *Field
}

// heatCapacities returns the per-cell ρc·area vector (J/(K·m), per unit
// length normal to the section).
func (s *Solver) heatCapacities() []float64 {
	m := s.m
	out := make([]float64, s.n)
	for j := 0; j < m.ny(); j++ {
		for i := 0; i < m.nx(); i++ {
			out[s.idx(i, j)] = m.rhoc[j][i] * m.dx(i) * m.dy(j)
		}
	}
	return out
}

// addDiag returns a copy of the CSR matrix with d added to the diagonal.
// Every row of the conduction matrix has a diagonal entry by construction.
func addDiag(a *mathx.CSR, d []float64) (*mathx.CSR, error) {
	out := &mathx.CSR{
		N:      a.N,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	for i := 0; i < a.N; i++ {
		found := false
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			if out.ColIdx[k] == i {
				out.Val[k] += d[i]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fdm: matrix row %d lacks a diagonal entry", i)
		}
	}
	return out, nil
}

// SolvePulse integrates the response to a rectangular power pulse: the
// given per-line dissipations (W/m) are applied for onDuration, then
// removed; integration continues to totalDuration (≥ onDuration) so
// cooling is captured. steps is the total number of (uniform) time steps.
func (s *Solver) SolvePulse(powers map[LineRef]float64, onDuration, totalDuration float64, steps int) (*Transient, error) {
	if onDuration <= 0 || totalDuration < onDuration {
		return nil, fmt.Errorf("%w: pulse window on=%g total=%g", ErrInvalid, onDuration, totalDuration)
	}
	if steps < 2 {
		return nil, fmt.Errorf("%w: need at least 2 steps", ErrInvalid)
	}
	// Build the source vector once (same shape as the steady solver's
	// RHS).
	b, err := s.rhs(powers)
	if err != nil {
		return nil, err
	}

	dt := totalDuration / float64(steps)
	caps := s.heatCapacities()
	mOverDt := make([]float64, s.n)
	for i := range caps {
		mOverDt[i] = caps[i] / dt
	}
	sys, err := addDiag(s.a, mOverDt)
	if err != nil {
		return nil, err
	}
	// The backward-Euler system matrix is fixed across all steps, so a
	// one-time banded factorization turns every step into two triangular
	// sweeps; wide meshes fall back to CG warm-started from the previous
	// step.
	sysSPD := mathx.NewSPD(sys, mathx.CholEntryBudget/s.n)
	var scratch mathx.CGScratch

	tr := &Transient{LineDT: make(map[LineRef][]float64)}
	temp := make([]float64, s.n)
	rhs := make([]float64, s.n)
	record := func(tNow float64) {
		tr.Times = append(tr.Times, tNow)
		f := &Field{s: s, dt: temp}
		for ref := range powers {
			dtLine, _ := f.LineDeltaT(ref)
			tr.LineDT[ref] = append(tr.LineDT[ref], dtLine)
		}
		tr.MaxDT = append(tr.MaxDT, f.MaxDeltaT())
	}
	record(0)
	tNow := 0.0
	for k := 0; k < steps; k++ {
		tNow += dt
		for i := range rhs {
			rhs[i] = mOverDt[i] * temp[i]
		}
		if tNow <= onDuration+dt/2 {
			for i := range rhs {
				rhs[i] += b[i]
			}
		}
		if err := sysSPD.Solve(rhs, temp, &scratch); err != nil {
			return nil, fmt.Errorf("fdm: transient step at t=%g: %w", tNow, err)
		}
		record(tNow)
	}
	final := make([]float64, s.n)
	copy(final, temp)
	pp := make(map[LineRef]float64, len(powers))
	for k, v := range powers {
		pp[k] = v
	}
	tr.Final = &Field{s: s, dt: final, PowerPerLength: pp}
	return tr, nil
}

// PeakLineDT returns the maximum over time of the line's average ΔT.
func (tr *Transient) PeakLineDT(ref LineRef) (float64, error) {
	series, ok := tr.LineDT[ref]
	if !ok {
		return 0, fmt.Errorf("%w: line %+v was not heated", ErrInvalid, ref)
	}
	peak := 0.0
	for _, v := range series {
		if v > peak {
			peak = v
		}
	}
	return peak, nil
}
