package core

import (
	"testing"

	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
)

func sweepTestProblem(t *testing.T) Problem {
	t.Helper()
	return Problem{
		Line: &geometry.Line{
			Metal:  &material.Cu,
			Width:  phys.Microns(3),
			Thick:  phys.Microns(0.5),
			Length: phys.Microns(1000),
			Below:  geometry.Stack{{Material: &material.Oxide, Thickness: phys.Microns(3)}},
		},
		Model: thermal.Quasi1D(),
		R:     0.1,
		J0:    phys.MAPerCm2(0.6),
	}
}

// TestSweepParallelEqualsSerial: the parallel sweep assembles the exact
// serial result — same points, same order, bit-identical solutions — at
// worker counts 1, 2 and 8.
func TestSweepParallelEqualsSerial(t *testing.T) {
	p := sweepTestProblem(t)
	rs := Fig2DutyCycles(25)
	serial, err := SweepDutyCycle(p, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		mathx.SetWorkers(w)
		par, err := SweepDutyCycleParallel(p, rs)
		mathx.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d point %d: %+v != serial %+v", w, i, par[i], serial[i])
			}
		}
	}
}

// TestSweepParallelErrorMatchesSerial: with invalid points in the grid,
// the parallel sweep reports the same (lowest-index) error the serial
// sweep stops at.
func TestSweepParallelErrorMatchesSerial(t *testing.T) {
	p := sweepTestProblem(t)
	rs := []float64{0.1, -1, 0.5, -2}
	_, serialErr := SweepDutyCycle(p, rs)
	if serialErr == nil {
		t.Fatal("serial sweep must fail on r = -1")
	}
	mathx.SetWorkers(8)
	_, parErr := SweepDutyCycleParallel(p, rs)
	mathx.SetWorkers(0)
	if parErr == nil {
		t.Fatal("parallel sweep must fail on r = -1")
	}
	if parErr.Error() != serialErr.Error() {
		t.Fatalf("parallel error %q != serial error %q", parErr, serialErr)
	}
}
