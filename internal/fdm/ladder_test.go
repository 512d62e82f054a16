package fdm

import (
	"context"
	"errors"
	"math"
	"testing"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
)

// The fallback-ladder tests: an injected primary-rung failure at
// faultinject.SiteMathxSolve must walk each fdm solve (steady, sheet and
// transient) down to the mathx.SPD CG rungs, produce an answer agreeing
// with the direct path, and count every step in the mathx numeric
// stats.

func TestSolverLadderFallbackMatchesDirect(t *testing.T) {
	ar := slabArray(t)
	s, err := NewSolver(ar, phys.Microns(0.2))
	if err != nil {
		t.Fatal(err)
	}
	powers := map[LineRef]float64{{Level: 1, Index: 0}: 1}
	direct, err := s.Solve(powers)
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder, err := s.Solve(powers)
	if err != nil {
		t.Fatalf("ladder solve: %v", err)
	}
	after := mathx.NumericStats()
	if after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}

	w := ar.WidthExtent()
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		x, y := frac*w, phys.Microns(1.2)
		d, l := direct.At(x, y), ladder.At(x, y)
		if math.Abs(d-l) > 1e-6*(1+math.Abs(d)) {
			t.Fatalf("ladder field differs at (%g, %g): direct %g, ladder %g", x, y, d, l)
		}
	}
}

func TestSheetLadderFallbackMatchesDirect(t *testing.T) {
	nx, ny := 12, 10
	s, err := NewSheetSolver(nx, ny, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Direct() {
		t.Skip("sheet solver did not take the direct path at this size")
	}
	power := make([]float64, s.Cells())
	for i := range power {
		power[i] = float64(i%7) * 1e3
	}
	direct := make([]float64, s.Cells())
	if err := s.Solve(power, direct); err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder := make([]float64, s.Cells())
	if err := s.Solve(power, ladder); err != nil {
		t.Fatalf("ladder solve: %v", err)
	}
	if after := mathx.NumericStats(); after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}
	for i := range direct {
		if math.Abs(direct[i]-ladder[i]) > 1e-6*(1+math.Abs(direct[i])) {
			t.Fatalf("cell %d: direct %g, ladder %g", i, direct[i], ladder[i])
		}
	}
}

// TestSolverLadderPulseFallback: every backward-Euler step of SolvePulse
// goes through the ladder too, so an injected direct-rung failure walks
// each step down to warm-started IC(0) CG with the same trajectory.
func TestSolverLadderPulseFallback(t *testing.T) {
	s := esdLineArray(t)
	ref := LineRef{Level: 1, Index: 0}
	powers := map[LineRef]float64{ref: 10}
	direct, err := s.SolvePulse(powers, 1e-6, 3e-6, 30)
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	ladder, err := s.SolvePulse(powers, 1e-6, 3e-6, 30)
	if err != nil {
		t.Fatalf("ladder pulse: %v", err)
	}
	after := mathx.NumericStats()
	if after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}
	d, l := direct.LineDT[ref], ladder.LineDT[ref]
	for k := range d {
		if math.Abs(d[k]-l[k]) > 1e-6*(1+math.Abs(d[k])) {
			t.Fatalf("step %d: direct ΔT %g, ladder %g", k, d[k], l[k])
		}
	}
}

// TestSheetSolveAliasedArgs pins the aliasing contract the ladder's
// private-copy guard provides: power and out may be the same slice.
func TestSheetSolveAliasedArgs(t *testing.T) {
	s, err := NewSheetSolver(8, 8, 1e-4, 1e-4, 0.05, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, s.Cells())
	for i := range power {
		power[i] = float64(i + 1)
	}
	want := make([]float64, s.Cells())
	if err := s.Solve(power, want); err != nil {
		t.Fatal(err)
	}
	buf := append([]float64(nil), power...)
	if err := s.Solve(buf, buf); err != nil {
		t.Fatalf("aliased solve: %v", err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("cell %d: aliased %g, separate %g", i, buf[i], want[i])
		}
	}
}
