package powergrid

import (
	"context"
	"errors"
	"math"
	"testing"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/mathx"
)

// TestIRDropFallbackMatchesIC0: an injected primary-path failure at
// faultinject.SiteMathxSolve must push the IR-drop solve off its banded
// factor rung onto IC(0) CG, with the same answer and the fallback
// counted.
func TestIRDropFallbackMatchesIC0(t *testing.T) {
	g := testGrid()
	loads := []Load{{Node{4, 4}, 0.2}}
	want, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}

	before := mathx.NumericStats()
	cancel := faultinject.Set(faultinject.SiteMathxSolve, func(context.Context) error {
		return errors.New("injected primary-path failure")
	})
	defer cancel()
	got, err := g.Solve(loads, SolveOpts{})
	if err != nil {
		t.Fatalf("fallback solve: %v", err)
	}
	after := mathx.NumericStats()
	if after.FallbackSolves <= before.FallbackSolves {
		t.Fatalf("FallbackSolves %d -> %d, want increase", before.FallbackSolves, after.FallbackSolves)
	}
	if math.Abs(got.WorstDrop-want.WorstDrop) > 1e-9*(1+math.Abs(want.WorstDrop)) {
		t.Fatalf("fallback WorstDrop %g, direct %g", got.WorstDrop, want.WorstDrop)
	}
	if got.WorstDropNode != want.WorstDropNode {
		t.Fatalf("fallback worst node %+v, direct %+v", got.WorstDropNode, want.WorstDropNode)
	}
}
