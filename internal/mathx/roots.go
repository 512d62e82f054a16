// Package mathx is the numerical substrate for dsmtherm: root finding,
// small dense and banded linear algebra, a conjugate-gradient solver for the
// sparse SPD systems produced by the finite-difference thermal solver,
// interpolation and least-squares fitting.
//
// The module is stdlib-only, so these routines replace the pieces of a
// numerical library (LAPACK, GSL, SciPy) that the paper's original tooling
// would have leaned on. Each routine is written for the modest problem
// sizes of this domain (≤ a few 10⁵ unknowns) and is validated in the
// package tests against closed-form cases.
package mathx

import (
	"context"
	"errors"
	"math"
)

// ErrNoBracket is returned by bracketing root finders when f(a) and f(b)
// do not straddle zero.
var ErrNoBracket = errors.New("mathx: root is not bracketed")

// ErrMaxIterations is returned when an iterative method fails to converge
// within its iteration budget.
var ErrMaxIterations = errors.New("mathx: maximum iterations exceeded")

// Func1D is a scalar function of one variable.
type Func1D func(x float64) float64

// Bisect finds a root of f in [a, b] by bisection to absolute tolerance tol
// on x. f(a) and f(b) must have opposite signs (zero counts as either sign).
func Bisect(f Func1D, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). It converges superlinearly for
// smooth f while retaining bisection's robustness. tol is the absolute
// tolerance on x.
func Brent(f Func1D, a, b, tol float64) (float64, error) {
	return BrentCtx(context.Background(), f, a, b, tol)
}

// BrentCtx is Brent with a cancellation check between iterations: when
// ctx ends mid-search, the search stops within one iteration and the
// context's error is returned. Long-running services use this so an
// abandoned request stops burning a solver slot at the next iteration
// boundary rather than running the root search to convergence. The check
// is a non-blocking receive on ctx.Done(), not ctx.Err(): Err takes the
// context's mutex, which every worker checking segments of one request
// would contend on once per iteration. A context that never ends, such as
// Background, has a nil Done and is not polled at all.
func BrentCtx(ctx context.Context, f Func1D, a, b, tol float64) (float64, error) {
	done := ctx.Done()
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < 200; i++ {
		if done != nil {
			select {
			case <-done:
				return b, ctx.Err()
			default:
			}
		}
		if fb == 0 || math.Abs(b-a) < tol {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if math.Signbit(fa) != math.Signbit(fs) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIterations
}

// Newton finds a root of f starting from x0 using Newton's method with a
// numerically differenced derivative and a bisection-style safeguard inside
// [lo, hi]. It returns ErrMaxIterations if |f| does not fall below ftol
// within 100 iterations.
func Newton(f Func1D, x0, lo, hi, ftol float64) (float64, error) {
	x := math.Min(math.Max(x0, lo), hi)
	for i := 0; i < 100; i++ {
		fx := f(x)
		if math.Abs(fx) < ftol {
			return x, nil
		}
		h := 1e-6 * (math.Abs(x) + 1)
		dfx := (f(x+h) - f(x-h)) / (2 * h)
		if dfx == 0 {
			break
		}
		nx := x - fx/dfx
		if nx < lo || nx > hi || math.IsNaN(nx) {
			// Safeguarded fallback: damp toward the interval midpoint.
			nx = 0.5 * (x + math.Min(math.Max(nx, lo), hi))
		}
		if math.Abs(nx-x) < 1e-14*(math.Abs(x)+1) {
			return nx, nil
		}
		x = nx
	}
	return x, ErrMaxIterations
}

// BracketOutward expands an initial interval [a, b] geometrically until f
// changes sign across it, up to maxExpand doublings. It is used to seed
// Brent when only a point estimate of the root's location is known.
func BracketOutward(f Func1D, a, b float64, maxExpand int) (float64, float64, error) {
	if a == b {
		b = a + 1
	}
	fa, fb := f(a), f(b)
	for i := 0; i < maxExpand; i++ {
		if math.Signbit(fa) != math.Signbit(fb) || fa == 0 || fb == 0 {
			return a, b, nil
		}
		w := b - a
		if math.Abs(fa) < math.Abs(fb) {
			a -= w
			fa = f(a)
		} else {
			b += w
			fb = f(b)
		}
	}
	return a, b, ErrNoBracket
}

// MinimizeGolden finds the minimizer of a unimodal f on [a, b] by
// golden-section search to absolute tolerance tol on x.
func MinimizeGolden(f Func1D, a, b, tol float64) float64 {
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return 0.5 * (a + b)
}
