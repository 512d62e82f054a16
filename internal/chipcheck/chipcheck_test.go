package chipcheck

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsmtherm/internal/em"
	"dsmtherm/internal/mathx"
)

func fp(v float64) *float64 { return &v }
func ip(v int) *int         { return &v }

// smallFixture is the small golden grid: a 12×12 ring-padded mesh with
// a uniform background draw plus one hotspot block — converges in a
// few passes with a mixed idle/immortal/pass/fail verdict split.
func smallFixture() Params {
	return Params{
		Nx: 12, Ny: 12,
		PadRing:         true,
		UniformLoadA:    fp(1.2),
		Loads:           []LoadSpec{{I: 5, J: 5, Amps: 0.3}},
		IncludeSegments: true,
	}
}

// mediumFixture is the medium golden grid: 48×32 with wider straps, a
// heavier uniform draw and a center hotspot.
func mediumFixture() Params {
	return Params{
		Nx: 48, Ny: 32,
		WidthMultiple:   fp(8),
		PadRing:         true,
		UniformLoadA:    fp(12),
		Loads:           []LoadSpec{{I: 24, J: 16, Amps: 1.5}},
		IncludeSegments: true,
	}
}

func mustCompile(t *testing.T, p Params) *Check {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func solveFixture(t *testing.T, p Params) (*Check, *Field) {
	t.Helper()
	c := mustCompile(t, p)
	f, err := c.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func TestCompileValidation(t *testing.T) {
	base := smallFixture()
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"unknown node", func(p *Params) { p.Node = "0.5" }},
		{"unknown gap", func(p *Params) { p.Gap = "unobtainium" }},
		{"unknown metal", func(p *Params) { p.Metal = "unobtainium" }},
		{"tiny mesh", func(p *Params) { p.Nx = 1 }},
		{"huge mesh", func(p *Params) { p.Nx = 1 << 12; p.Ny = 1 << 12 }},
		{"bad level", func(p *Params) { p.HLevel = 99 }},
		{"bad pitch", func(p *Params) { p.PitchXUm = fp(0) }},
		{"nan pitch", func(p *Params) { p.PitchYUm = fp(math.NaN()) }},
		{"bad width", func(p *Params) { p.WidthMultiple = fp(0.5) }},
		{"pad outside", func(p *Params) { p.Pads = []NodeRef{{I: 99, J: 0}} }},
		{"no pads", func(p *Params) { p.PadRing = false }},
		{"load outside", func(p *Params) { p.Loads = []LoadSpec{{I: -1, J: 0, Amps: 1}} }},
		{"negative load", func(p *Params) { p.Loads = []LoadSpec{{I: 3, J: 3, Amps: -1}} }},
		{"inf load", func(p *Params) { p.Loads = []LoadSpec{{I: 3, J: 3, Amps: math.Inf(1)}} }},
		{"negative uniform", func(p *Params) { p.UniformLoadA = fp(-1) }},
		{"bad j0", func(p *Params) { p.J0MA = fp(0) }},
		{"bad tref", func(p *Params) { p.TrefC = fp(-400) }},
		{"zero maxIter", func(p *Params) { p.MaxIter = ip(0) }},
		{"huge maxIter", func(p *Params) { p.MaxIter = ip(MaxSolveIter + 1) }},
		{"bad tol", func(p *Params) { p.TolK = fp(0) }},
		{"negative sheet", func(p *Params) { p.SheetCondWPerK = fp(-1) }},
		{"bad sink", func(p *Params) { p.SinkWPerM2K = fp(0) }},
		{"bad drop frac", func(p *Params) { p.DropLimitFrac = fp(1.5) }},
	}
	for _, c := range cases {
		p := base
		c.mut(&p)
		if _, err := Compile(p); err == nil {
			t.Errorf("%s: Compile accepted invalid params", c.name)
		}
	}
	// Every-node-a-pad uniform load has nowhere to land.
	if _, err := Compile(Params{Nx: 2, Ny: 2, PadRing: true, UniformLoadA: fp(1)}); !errors.Is(err, ErrInvalid) {
		t.Errorf("all-pads uniform load: err = %v, want ErrInvalid", err)
	}
}

func TestSolveConvergesOnFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"small", smallFixture()},
		{"medium", mediumFixture()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, f := solveFixture(t, tc.p)
			if !f.Converged {
				t.Fatalf("fixture did not converge in %d passes (residuals %v)", f.Iterations, f.Residuals)
			}
			last := f.Residuals[len(f.Residuals)-1]
			if last > 0.01 {
				t.Fatalf("final residual %g exceeds documented tolerance 0.01 K", last)
			}
			// The coupled loop is a contraction on these fixtures: the
			// residual trace must be monotone non-increasing.
			for i := 1; i < len(f.Residuals); i++ {
				if f.Residuals[i] > f.Residuals[i-1] {
					t.Fatalf("residuals not monotone: %v", f.Residuals)
				}
			}
			verdicts, err := c.Verdicts(f, 0, c.NumBranches())
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Report(f, verdicts)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Summary
			if s.Idle+s.Immortal+s.Pass+s.Fail != s.Branches {
				t.Fatalf("verdict counts %d+%d+%d+%d != %d branches", s.Idle, s.Immortal, s.Pass, s.Fail, s.Branches)
			}
			if s.Immortal+s.Pass == 0 {
				t.Fatalf("fixture should have surviving segments: %+v", s)
			}
			if s.MaxDeltaTK <= 0 || s.HottestTmC <= 100 {
				t.Fatalf("fixture should self-heat: maxDT %g K, hottest %g °C", s.MaxDeltaTK, s.HottestTmC)
			}
			if len(res.Worst) == 0 || len(res.Worst) > WorstOut {
				t.Fatalf("worst list has %d entries", len(res.Worst))
			}
			for i := 1; i < len(res.Worst); i++ {
				if res.Worst[i].Ratio < res.Worst[i-1].Ratio {
					t.Fatalf("worst list not sorted by ratio")
				}
			}
			if len(res.Segments) != s.Branches {
				t.Fatalf("IncludeSegments: got %d segments, want %d", len(res.Segments), s.Branches)
			}
		})
	}
}

// TestSolveDeterministicAcrossWorkers pins the bit-determinism
// invariant: the whole pipeline — coupled solve, verdict pass, report —
// is bit-identical at 1, 2 and 8 mathx workers.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	defer mathx.SetWorkers(mathx.Workers())
	type run struct {
		f *Field
		v []Verdict
		r *Result
	}
	runs := map[int]run{}
	for _, w := range []int{1, 2, 8} {
		mathx.SetWorkers(w)
		c, f := solveFixture(t, smallFixture())
		v, err := c.Verdicts(f, 0, c.NumBranches())
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Report(f, v)
		if err != nil {
			t.Fatal(err)
		}
		runs[w] = run{f, v, r}
	}
	base := runs[1]
	for _, w := range []int{2, 8} {
		got := runs[w]
		if !reflect.DeepEqual(base.f.DT, got.f.DT) || !reflect.DeepEqual(base.f.Temps, got.f.Temps) ||
			!reflect.DeepEqual(base.f.Residuals, got.f.Residuals) {
			t.Fatalf("field differs between workers=1 and workers=%d", w)
		}
		if !reflect.DeepEqual(base.v, got.v) {
			t.Fatalf("verdicts differ between workers=1 and workers=%d", w)
		}
		if !reflect.DeepEqual(base.r, got.r) {
			t.Fatalf("report differs between workers=1 and workers=%d", w)
		}
	}
}

// TestVerdictTilesPermutationInvariant checks the jobs-chunking
// contract: computing verdicts tile by tile, in any tile order, yields
// exactly the full-range pass.
func TestVerdictTilesPermutationInvariant(t *testing.T) {
	c, f := solveFixture(t, smallFixture())
	nb := c.NumBranches()
	want, err := c.Verdicts(f, 0, nb)
	if err != nil {
		t.Fatal(err)
	}
	const tile = 37 // deliberately not a divisor of nb
	ntiles := (nb + tile - 1) / tile
	// A fixed "random" permutation of tile indices.
	order := make([]int, ntiles)
	for i := range order {
		order[i] = i
	}
	for i := range order {
		j := (i*2654435761 + 7) % ntiles
		order[i], order[j] = order[j], order[i]
	}
	got := make([]Verdict, nb)
	for _, k := range order {
		lo := k * tile
		hi := min(lo+tile, nb)
		vs, err := c.Verdicts(f, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		copy(got[lo:hi], vs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tiled verdicts differ from full-range pass")
	}
}

func TestSolveCancelledCtx(t *testing.T) {
	c := mustCompile(t, smallFixture())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Solve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestVerdictRangeValidation(t *testing.T) {
	c, f := solveFixture(t, smallFixture())
	for _, r := range [][2]int{{-1, 5}, {5, 4}, {0, c.NumBranches() + 1}} {
		if _, err := c.Verdicts(f, r[0], r[1]); !errors.Is(err, ErrInvalid) {
			t.Errorf("range %v: err = %v, want ErrInvalid", r, err)
		}
	}
}

func TestReportValidation(t *testing.T) {
	c, f := solveFixture(t, smallFixture())
	if _, err := c.Report(f, make([]Verdict, 3)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short verdicts: err = %v, want ErrInvalid", err)
	}
}

// TestRunawayGridReportsNonConvergence: a grid driven into thermal
// runaway must terminate at the iteration cap with a structured
// NonConvergence error (wrapping mathx.ErrNumeric) instead of spinning,
// blowing up, or returning a silently non-converged field.
func TestRunawayGridReportsNonConvergence(t *testing.T) {
	p := smallFixture()
	p.UniformLoadA = fp(30)
	p.MaxIter = ip(8)
	c := mustCompile(t, p)
	_, err := c.Solve(context.Background())
	if !errors.Is(err, mathx.ErrNumeric) {
		t.Fatalf("err = %v, want mathx.ErrNumeric", err)
	}
	var nc *NonConvergence
	if !errors.As(err, &nc) {
		t.Fatalf("err = %T, want *NonConvergence", err)
	}
	f := nc.Field
	if f == nil {
		t.Fatal("NonConvergence carries no field")
	}
	if f.Converged {
		t.Fatal("runaway grid reported convergence")
	}
	if f.Iterations != 8 {
		t.Fatalf("iterations = %d, want the cap 8", f.Iterations)
	}
	if nc.Passes != 8 || nc.Resid <= nc.Tol {
		t.Fatalf("NonConvergence{Passes: %d, Resid: %g, Tol: %g} inconsistent", nc.Passes, nc.Resid, nc.Tol)
	}
	v, err := c.Verdicts(f, 0, c.NumBranches())
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Report(f, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.OK {
		t.Fatal("non-converged check must not be OK")
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
	s := []float64{1, 2, 3, 4, 5}
	if q := quantile(s, 0); q != 1 {
		t.Fatalf("p0 = %g", q)
	}
	if q := quantile(s, 0.5); q != 3 {
		t.Fatalf("p50 = %g", q)
	}
	if q := quantile(s, 1); q != 5 {
		t.Fatalf("p100 = %g", q)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := mustCompile(t, Params{Nx: 4, Ny: 4, PadRing: true})
	if c.Grid.HLevel != c.Grid.Tech.NumLevels()-1 || c.Grid.VLevel != c.Grid.Tech.NumLevels() {
		t.Fatalf("default levels = %d/%d", c.Grid.HLevel, c.Grid.VLevel)
	}
	if c.maxIter != 25 || c.tol != 0.01 {
		t.Fatalf("default loop controls = %d/%g", c.maxIter, c.tol)
	}
	if !c.hasTransport {
		t.Fatal("default AlCu technology should have Blech transport params")
	}
	if c.NumBranches() != 2*4*4-4-4 {
		t.Fatalf("NumBranches = %d", c.NumBranches())
	}
}

// TestNearIdleSegmentsAreIdle: a current too small for Black's law to
// bound in float64 (its lifetime ratio overflows to +Inf) is idle, with
// a zero ratio, exactly like a zero current — so the report stays
// finite and the chip passes.
func TestNearIdleSegmentsAreIdle(t *testing.T) {
	c, f := solveFixture(t, Params{Nx: 12, Ny: 12, PadRing: true, Loads: []LoadSpec{{I: 5, J: 5, Amps: 1e-155}}})
	verdicts, err := c.Verdicts(f, 0, c.NumBranches())
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range verdicts {
		if v.Code != CodeIdle || v.Ratio != 0 {
			t.Fatalf("branch %d: code %q ratio %g, want idle with ratio 0", v.Branch, v.Code, v.Ratio)
		}
		if v.JMA != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("fixture must carry nonzero currents for the overflow path")
	}
	r, err := c.Report(f, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Idle != r.Summary.Branches || !r.Summary.OK {
		t.Fatalf("summary %+v, want all idle and OK", r.Summary)
	}
}

// TestVerdictsLowestBranchError: when the lifetime ratio fails at two
// branches, Verdicts returns the lower branch's error, wrapped with its
// index and still matchable as the em sentinel, on every call.
func TestVerdictsLowestBranchError(t *testing.T) {
	p := mediumFixture()
	p.Nx, p.Ny = 48, 48
	c, f := solveFixture(t, p)
	// The first current-carrying branches from 7 and from 3000 on (pad
	// ring branches carry none).
	var bad []int
	for _, from := range []int{7, 3000} {
		bi := from
		for bi < len(f.Sol.Branches) && f.Sol.Branches[bi].J == 0 {
			bi++
		}
		if bi == len(f.Sol.Branches) {
			t.Fatalf("no current-carrying branch from %d on", from)
		}
		f.Sol.Branches[bi].Tm = -1
		bad = append(bad, bi)
	}
	want := fmt.Sprintf("branch %d:", bad[0])
	for call := 0; call < 50; call++ {
		_, err := c.Verdicts(f, 0, c.NumBranches())
		if !errors.Is(err, em.ErrInvalid) || !strings.Contains(err.Error(), want) {
			t.Fatalf("call %d: error %v, want branch %d's em.ErrInvalid", call, err, bad[0])
		}
	}
}

// TestSharedOperatorNonConvergence: runaway checks solved on one shared
// operator each return a NonConvergence whose field is their own — the
// cold solve's field, untouched by a later solve on the operator, with
// the check's own grid.
func TestSharedOperatorNonConvergence(t *testing.T) {
	runaway := func(amps float64) *Check {
		p := smallFixture()
		p.UniformLoadA = fp(30)
		p.Loads[0].Amps = amps
		p.MaxIter = ip(8)
		return mustCompile(t, p)
	}
	solve := func(c *Check, op *Operator) *Field {
		t.Helper()
		var err error
		if op == nil {
			_, err = c.Solve(context.Background())
		} else {
			_, err = c.SolveWith(context.Background(), op)
		}
		var nc *NonConvergence
		if !errors.As(err, &nc) {
			t.Fatalf("err = %v, want *NonConvergence", err)
		}
		return nc.Field
	}
	c1, c2 := runaway(0.3), runaway(0.6)
	op, err := c1.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	f1 := solve(c1, op)
	solve(c2, op)
	cold := solve(c1, nil)
	drop := func(f *Field) []float64 { return slices.Concat(f.Sol.Drop...) }
	current := func(f *Field) []float64 {
		out := make([]float64, len(f.Sol.Branches))
		for i, b := range f.Sol.Branches {
			out[i] = b.Current
		}
		return out
	}
	for name, get := range map[string]func(*Field) []float64{
		"DT": func(f *Field) []float64 { return f.DT }, "Temps": func(f *Field) []float64 { return f.Temps },
		"Residuals": func(f *Field) []float64 { return f.Residuals }, "Drop": drop, "Current": current,
	} {
		if got, want := get(f1), get(cold); !slices.Equal(got, want) {
			t.Errorf("%s of the shared-operator field differs from the cold field", name)
		}
	}
	if f1.Sol.Grid != c1.Grid {
		t.Error("the field's solution points at another check's grid")
	}
}

// TestSolveWithOtherGeometry: an operator solves only checks with its
// key.
func TestSolveWithOtherGeometry(t *testing.T) {
	op, err := mustCompile(t, smallFixture()).NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	p := smallFixture()
	p.SinkWPerM2K = fp(2e4)
	if _, err := mustCompile(t, p).SolveWith(context.Background(), op); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}
