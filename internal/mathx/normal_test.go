package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestInvNormCDF(t *testing.T) {
	// Spot values.
	cases := map[float64]float64{
		0.5:      0,
		0.841345: 1,
		0.001:    -3.090232,
		0.999:    3.090232,
	}
	for p, want := range cases {
		if got := InvNormCDF(p); math.Abs(got-want) > 1e-5 {
			t.Errorf("InvNormCDF(%v) = %v, want %v", p, got, want)
		}
	}
	// Round trip across the domain.
	for p := 1e-6; p < 1; p += 0.013 {
		x := InvNormCDF(p)
		if math.Abs(NormCDF(x)-p) > 1e-12 {
			t.Fatalf("round trip at p=%v: %v", p, NormCDF(x))
		}
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("endpoints must be ±Inf")
	}
	if !math.IsNaN(InvNormCDF(-0.1)) || !math.IsNaN(InvNormCDF(1.1)) || !math.IsNaN(InvNormCDF(math.NaN())) {
		t.Error("out-of-domain must be NaN")
	}

	// Tails: on a log grid of tail masses m ∈ [1e-300, 0.5], Φ of the
	// inverse must give m back to 2e-12 relative. Φ is NormCDF, whose
	// deep tail TestNormCDF pins against high-precision values; the upper
	// tail mass of x is Φ(−x). The lower tail inverts
	// p = m; the upper tail inverts q = 1 − m (rounded), whose exact tail
	// mass is 1 − q, and is skipped once q rounds to 1.
	worst := 0.0
	for e := -300.0; e <= math.Log10(0.5); e += 0.01 {
		m := math.Pow(10, e)
		if got := NormCDF(InvNormCDF(m)); math.Abs(got-m)/m > 2e-12 {
			t.Fatalf("lower tail at p=%g: Φ(Φ⁻¹(p)) = %g (rel err %.2g)", m, got, math.Abs(got-m)/m)
		} else {
			worst = max(worst, math.Abs(got-m)/m)
		}
		q := 1 - m
		s := 1 - q
		if s == 0 {
			continue
		}
		if got := NormCDF(-InvNormCDF(q)); math.Abs(got-s)/s > 2e-12 {
			t.Fatalf("upper tail at 1-p=%g: 1-Φ(Φ⁻¹(p)) = %g (rel err %.2g)", s, got, math.Abs(got-s)/s)
		} else {
			worst = max(worst, math.Abs(got-s)/s)
		}
	}
	t.Logf("worst tail round-trip relative error %.2g", worst)

	// Monotone across each point where the rational approximation
	// changes piece: |p − 0.5| = 0.425 on both sides, and
	// r = √(−ln min(p, 1−p)) = 5 in both tails. Each step moves the exact
	// inverse by 16 ulps of x (or one ulp of p, if that is more), so
	// rounding noise cannot reverse a step but a seam where two pieces
	// disagree by more than that does.
	r5 := math.Exp(-25)
	for _, b := range []float64{0.075, 0.925, r5, 1 - r5} {
		x := InvNormCDF(b)
		ulpX := math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x)
		step := max(16*ulpX*math.Exp(-x*x/2)/math.Sqrt(2*math.Pi), math.Nextafter(b, 1)-b)
		p := b - 200*step
		prev := InvNormCDF(p)
		for i := 0; i < 400; i++ {
			p += step
			x := InvNormCDF(p)
			if !(x > prev) {
				t.Fatalf("near branch %g: InvNormCDF(%.17g) = %.17g, not above %.17g one step earlier", b, p, x, prev)
			}
			prev = x
		}
	}
}

func TestNormCDF(t *testing.T) {
	// Lower-tail values to 40 digits: Φ(−10) =
	// 7.619853024160526065973343251599308363504e-24, and so on.
	for _, c := range []struct{ x, want, tol float64 }{
		{-10, 7.619853024160526e-24, 1e-14},
		{-20, 2.7536241186062337e-89, 1e-12},
		{-37, 5.725571222524577e-300, 1e-12},
	} {
		if got := NormCDF(c.x); math.Abs(got-c.want)/c.want > c.tol {
			t.Errorf("NormCDF(%g) = %.17g, want %.17g to %g relative", c.x, got, c.want, c.tol)
		}
	}
	if got := NormCDF(0); got != 0.5 {
		t.Errorf("NormCDF(0) = %v, want 0.5", got)
	}
	for _, x := range []float64{-5, -1, 0.3, 2, 6} {
		if s := NormCDF(x) + NormCDF(-x); math.Abs(s-1) > 1e-15 {
			t.Errorf("NormCDF(%g) + NormCDF(%g) = %v, want 1", x, -x, s)
		}
	}
	if NormCDF(math.Inf(-1)) != 0 || NormCDF(math.Inf(1)) != 1 {
		t.Error("NormCDF at ±Inf must be 0 and 1")
	}
}

// TestInvNormCDFLog: the inverse from ln p agrees with
// InvNormCDF(math.Exp(lnp)) to 4.5e-16 relative wherever exp(lnp) is a
// normal float64 at most 0.075 (the tail piece, evaluated at √(−lnp)
// instead of √(−ln exp(lnp))), equals it exactly above ln 0.075, and
// keeps the endpoint conventions.
func TestInvNormCDFLog(t *testing.T) {
	lo, hi := math.Log(0x1p-1022), math.Log(0.075)
	lnps := []float64{lo, hi, math.Nextafter(hi, 0), math.Nextafter(hi, math.Inf(-1)), math.Log(1e-300), -25}
	for i := 0; i <= 20000; i++ {
		lnps = append(lnps, lo+(hi-lo)*float64(i)/20000)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		lnps = append(lnps, lo+(hi-lo)*rng.Float64(), hi*(1+3*rng.Float64()))
	}
	worst := 0.0
	for _, lnp := range lnps {
		p := math.Exp(lnp)
		if p < 0x1p-1022 || p > 0.075 {
			continue
		}
		got, want := InvNormCDFLog(lnp), InvNormCDF(p)
		rel := math.Abs(got-want) / math.Abs(want)
		worst = max(worst, rel)
		if rel > 4.5e-16 {
			t.Fatalf("lnp=%.17g: %.17g, InvNormCDF(exp(lnp)) = %.17g (relative %.2g)", lnp, got, want, rel)
		}
	}
	t.Logf("worst relative difference %.2g", worst)
	for lnp := hi; lnp <= 0; lnp += 0.0007 {
		if got, want := InvNormCDFLog(lnp), InvNormCDF(math.Exp(lnp)); got != want {
			t.Fatalf("lnp=%.17g above the tail: %.17g, want InvNormCDF(exp(lnp)) = %.17g", lnp, got, want)
		}
	}
	if !math.IsInf(InvNormCDFLog(math.Inf(-1)), -1) || !math.IsInf(InvNormCDFLog(0), 1) {
		t.Error("lnp = −Inf and 0 must give −Inf and +Inf")
	}
	if !math.IsNaN(InvNormCDFLog(0.1)) || !math.IsNaN(InvNormCDFLog(math.NaN())) {
		t.Error("lnp > 0 and NaN must give NaN")
	}
}

var invNormSink float64

// BenchmarkInvNormCDF times the inverse in the centre piece and in the
// r ≤ 5 tail piece, the range a weakest-of-n lifetime draw lands in. One
// op is a sweep of 1024 levels, so the fixed -benchtime 10x of make
// bench-json still times ~10k calls; ns/call is the per-inverse cost.
func BenchmarkInvNormCDF(b *testing.B) {
	for _, bc := range []struct {
		name   string
		lo, hi float64
	}{
		{"centre", 0.1, 0.9},
		{"tail", 1e-9, 1e-3},
	} {
		ps := make([]float64, 1024)
		for i := range ps {
			ps[i] = bc.lo + (bc.hi-bc.lo)*float64(i)/float64(len(ps))
		}
		b.Run(bc.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					s += InvNormCDF(p)
				}
			}
			invNormSink = s
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/call")
		})
	}
}
