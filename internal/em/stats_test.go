package em

import (
	"math"
	"testing"
	"testing/quick"

	"dsmtherm/internal/material"
	"dsmtherm/internal/waveform"
)

func TestLognormalBasics(t *testing.T) {
	l := Lognormal{Median: 100, Sigma: 0.5}
	// Median: CDF(median) = 0.5, Quantile(0.5) = median.
	if math.Abs(l.CDF(100)-0.5) > 1e-12 {
		t.Errorf("CDF(median) = %v", l.CDF(100))
	}
	q, err := l.Quantile(0.5)
	if err != nil || math.Abs(q-100) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, %v", q, err)
	}
	if l.CDF(0) != 0 || l.CDF(-5) != 0 {
		t.Error("CDF at non-positive time must be 0")
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	l := Lognormal{Median: 3.7e8, Sigma: 0.42}
	prop := func(pRaw uint16) bool {
		p := 0.001 + 0.998*float64(pRaw)/65535
		q, err := l.Quantile(p)
		if err != nil {
			return false
		}
		return math.Abs(l.CDF(q)-p) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuantileValidation(t *testing.T) {
	l := Lognormal{Median: 1, Sigma: 0.5}
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		if _, err := l.Quantile(p); err == nil {
			t.Errorf("Quantile(%v) must fail", p)
		}
	}
	bad := Lognormal{Median: -1, Sigma: 0.5}
	if _, err := bad.Quantile(0.5); err == nil {
		t.Error("invalid distribution must fail")
	}
}

func TestSeriesQuantile(t *testing.T) {
	l := Lognormal{Median: 1e9, Sigma: 0.5}
	single, err := SeriesQuantile(l, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := l.Quantile(0.001)
	if math.Abs(single-direct)/direct > 1e-9 {
		t.Error("n = 1 series must equal the plain quantile")
	}
	// More segments → earlier system failure.
	prev := single
	for _, n := range []int{2, 10, 100, 1000} {
		q, err := SeriesQuantile(l, n, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if q >= prev {
			t.Errorf("n=%d: series quantile %v not below %v", n, q, prev)
		}
		prev = q
	}
	if _, err := SeriesQuantile(l, 0, 0.001); err == nil {
		t.Error("zero segments must fail")
	}
}

func TestPercentileJDeratingHeadline(t *testing.T) {
	// σ = 0.5, n = 2, 0.1 %: derating ≈ exp(0.5·(−3.090)/2) ≈ 0.462.
	d, err := PercentileJDerating(&material.Cu, DefaultSigma, DefaultPercentile)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.4617) > 0.002 {
		t.Errorf("derating = %v, want ≈0.462", d)
	}
	// Tighter percentile or wider spread → smaller derating.
	d2, _ := PercentileJDerating(&material.Cu, DefaultSigma, 1e-4)
	if d2 >= d {
		t.Error("tighter percentile must derate more")
	}
	d3, _ := PercentileJDerating(&material.Cu, 0.7, DefaultPercentile)
	if d3 >= d {
		t.Error("wider sigma must derate more")
	}
}

func TestSeriesJDerating(t *testing.T) {
	d1, err := SeriesJDerating(&material.Cu, DefaultSigma, DefaultPercentile, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := PercentileJDerating(&material.Cu, DefaultSigma, DefaultPercentile)
	if math.Abs(d1-single)/single > 1e-9 {
		t.Error("1 segment must match the plain derating")
	}
	prev := d1
	for _, n := range []int{10, 100, 1000} {
		d, err := SeriesJDerating(&material.Cu, DefaultSigma, DefaultPercentile, n)
		if err != nil {
			t.Fatal(err)
		}
		if d >= prev {
			t.Errorf("n=%d: derating %v should fall below %v", n, d, prev)
		}
		prev = d
	}
	// Even a 1000-segment net keeps a usable fraction.
	if prev < 0.1 {
		t.Errorf("1000-segment derating = %v — implausibly harsh", prev)
	}
	if _, err := SeriesJDerating(&material.Cu, 0.5, 0.001, 0); err == nil {
		t.Error("zero segments must fail")
	}
}

func TestEffectiveEMDensity(t *testing.T) {
	// Unipolar: no negative phase, recovery is irrelevant.
	u, _ := waveform.NewUnipolarPulse(10, 1, 0.2)
	for _, g := range []float64{0, 0.5, 1} {
		eff, err := EffectiveEMDensity(u, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eff-u.AbsAvg()) > 1e-12 {
			t.Errorf("gamma=%v: unipolar eff = %v, want %v", g, eff, u.AbsAvg())
		}
	}
	// Symmetric bipolar: eff = (1−γ)/2·|avg|·... each polarity carries
	// |avg|/2, so eff = (1−γ)·|avg|/2.
	b, _ := waveform.NewBipolarPulse(10, 1, 0.2)
	for _, g := range []float64{0, 0.5, 0.9, 1} {
		eff, err := EffectiveEMDensity(b, g)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - g) * b.AbsAvg() / 2
		if math.Abs(eff-want) > 1e-12 {
			t.Errorf("gamma=%v: bipolar eff = %v, want %v", g, eff, want)
		}
	}
	if _, err := EffectiveEMDensity(nil, 0.5); err == nil {
		t.Error("nil waveform must fail")
	}
	if _, err := EffectiveEMDensity(b, 1.5); err == nil {
		t.Error("gamma > 1 must fail")
	}
}

func TestRecoveryBoost(t *testing.T) {
	b, _ := waveform.NewBipolarPulse(10, 1, 0.2)
	// γ = 0: eff = |avg|/2 → boost 2 (the worst polarity carries half).
	b0, err := RecoveryBoost(b, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b0-2) > 1e-12 {
		t.Errorf("boost(0) = %v, want 2", b0)
	}
	// γ = 0.9: boost 20.
	b9, _ := RecoveryBoost(b, 0.9, 100)
	if math.Abs(b9-20) > 1e-9 {
		t.Errorf("boost(0.9) = %v, want 20", b9)
	}
	// Cap applies at full recovery.
	b1, _ := RecoveryBoost(b, 1, 30)
	if b1 != 30 {
		t.Errorf("boost(1) = %v, want cap 30", b1)
	}
	// Monotone in gamma.
	prev := 0.0
	for _, g := range []float64{0, 0.3, 0.6, 0.9} {
		bb, _ := RecoveryBoost(b, g, 1e3)
		if bb <= prev {
			t.Errorf("boost not monotone at gamma=%v", g)
		}
		prev = bb
	}
	// Unipolar: boost 1.
	u, _ := waveform.NewUnipolarPulse(10, 1, 0.2)
	bu, _ := RecoveryBoost(u, 0.9, 100)
	if bu != 1 {
		t.Errorf("unipolar boost = %v, want 1", bu)
	}
	// Idle waveform.
	bi, _ := RecoveryBoost(waveform.DC{Value: 0}, 0.9, 100)
	if bi != 1 {
		t.Errorf("idle boost = %v, want 1", bi)
	}
	if _, err := RecoveryBoost(b, 0.5, 0.5); err == nil {
		t.Error("maxBoost < 1 must fail")
	}
}
