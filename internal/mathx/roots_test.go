package mathx

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSimple(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Errorf("Bisect got %v, want sqrt(2)", x)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if x, err := Bisect(f, 1, 5, 1e-12); err != nil || x != 1 {
		t.Errorf("Bisect endpoint: x=%v err=%v", x, err)
	}
	if x, err := Bisect(f, -3, 1, 1e-12); err != nil || x != 1 {
		t.Errorf("Bisect endpoint right: x=%v err=%v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

// TestBrentCtxStopsWithinOneIteration: a context that ends while the
// bracket's endpoints are evaluated stops the search before its first
// iteration, and one that ends mid-search stops it at the next
// iteration boundary.
func TestBrentCtxStopsWithinOneIteration(t *testing.T) {
	for _, c := range []struct{ cancelAt, wantEvals int }{{1, 2}, {5, 5}} {
		ctx, cancel := context.WithCancel(context.Background())
		evals := 0
		f := func(x float64) float64 {
			if evals++; evals == c.cancelAt {
				cancel()
			}
			return x*x*x - x - 2
		}
		_, err := BrentCtx(ctx, f, 1, 2, 1e-13)
		cancel()
		if !errors.Is(err, context.Canceled) || evals != c.wantEvals {
			t.Errorf("cancelled at evaluation %d: err %v after %d evaluations, want context.Canceled after %d",
				c.cancelAt, err, evals, c.wantEvals)
		}
	}
}

func TestBrentAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    Func1D
		a, b float64
		root float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 0, 3, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
		{"steep", func(x float64) float64 { return math.Expm1(50 * (x - 0.3)) }, 0, 1, 0.3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x, err := Brent(c.f, c.a, c.b, 1e-13)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if math.Abs(x-c.root) > 1e-9 {
				t.Errorf("Brent got %v, want %v", x, c.root)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

// Property: for any monotone cubic with a root strictly inside the
// interval, Brent finds it.
func TestBrentPropertyMonotoneCubic(t *testing.T) {
	prop := func(rRaw, scaleRaw float64) bool {
		root := math.Mod(math.Abs(rRaw), 10) // root in [0, 10)
		scale := 0.1 + math.Mod(math.Abs(scaleRaw), 5)
		f := func(x float64) float64 {
			d := x - root
			return scale * (d*d*d + d)
		}
		x, err := Brent(f, root-11, root+11, 1e-13)
		return err == nil && math.Abs(x-root) < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewton(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Newton(f, 1, 0, 10, 1e-12)
	if err != nil {
		t.Fatalf("Newton: %v", err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-6 {
		t.Errorf("Newton got %v, want sqrt(2)", x)
	}
}

func TestBracketOutward(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := BracketOutward(f, 0, 1, 60)
	if err != nil {
		t.Fatalf("BracketOutward: %v", err)
	}
	if !(f(a) <= 0 && f(b) >= 0) {
		t.Errorf("interval [%v,%v] does not bracket", a, b)
	}
	// Root can then be located.
	x, err := Brent(f, a, b, 1e-12)
	if err != nil || math.Abs(x-100) > 1e-9 {
		t.Errorf("Brent after bracket: x=%v err=%v", x, err)
	}
}

func TestBracketOutwardFailure(t *testing.T) {
	f := func(x float64) float64 { return 1.0 }
	if _, _, err := BracketOutward(f, 0, 1, 8); err != ErrNoBracket {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestMinimizeGolden(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.25) * (x - 3.25) }
	x := MinimizeGolden(f, 0, 10, 1e-10)
	if math.Abs(x-3.25) > 1e-8 {
		t.Errorf("MinimizeGolden got %v, want 3.25", x)
	}
}
