package em

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dsmtherm/internal/mathx"
)

func TestChipModelValidate(t *testing.T) {
	good := ChipModel{Classes: []SegmentClass{{Count: 100, Median: 3e8, Sigma: 0.5}}, Rho: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]ChipModel{
		"no classes": {Rho: 0.3},
		"rho -0.1":   {Classes: good.Classes, Rho: -0.1},
		"rho 1":      {Classes: good.Classes, Rho: 1},
		"rho NaN":    {Classes: good.Classes, Rho: math.NaN()},
		"zero count": {Classes: []SegmentClass{{Count: 0, Median: 3e8, Sigma: 0.5}}},
		"bad median": {Classes: []SegmentClass{{Count: 1, Median: 0, Sigma: 0.5}}},
		"inf median": {Classes: []SegmentClass{{Count: 1, Median: math.Inf(1), Sigma: 0.5}}},
		"NaN sigma":  {Classes: []SegmentClass{{Count: 1, Median: 3e8, Sigma: math.NaN()}}},
		"zero sigma": {Classes: []SegmentClass{{Count: 1, Median: 3e8, Sigma: 0}}},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestChipSampleMatchesSeriesQuantile cross-checks the closed-form
// weakest-of-n draw against the analytic series quantile at rho = 0:
// empirical quantiles of SampleTTF must converge on SeriesQuantile.
func TestChipSampleMatchesSeriesQuantile(t *testing.T) {
	l := Lognormal{Median: 3e8, Sigma: 0.5}
	const n = 5000
	m := ChipModel{Classes: []SegmentClass{{Count: n, Median: l.Median, Sigma: l.Sigma}}}
	rng := rand.New(rand.NewSource(17))
	const samples = 20000
	ttfs := make([]float64, samples)
	for i := range ttfs {
		ttfs[i] = m.SampleTTF(rng)
	}
	sort.Float64s(ttfs)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		want, err := SeriesQuantile(l, n, p)
		if err != nil {
			t.Fatal(err)
		}
		got := ttfs[int(p*float64(samples-1))]
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("quantile %g: empirical %g vs analytic %g (rel %g)", p, got, want, rel)
		}
	}
}

// TestChipSampleCorrelationWidensSpread: with rho near 1 every segment
// shares its fate, so the weakest-link penalty shrinks (the median chip
// TTF rises toward the single-segment percentile) while the chip-to-chip
// spread widens.
func TestChipSampleCorrelationWidensSpread(t *testing.T) {
	cls := []SegmentClass{{Count: 10000, Median: 3e8, Sigma: 0.5}}
	quantiles := func(rho float64) (p10, p50, p90 float64) {
		m := ChipModel{Classes: cls, Rho: rho}
		rng := rand.New(rand.NewSource(4))
		ttfs := make([]float64, 8000)
		for i := range ttfs {
			ttfs[i] = m.SampleTTF(rng)
		}
		sort.Float64s(ttfs)
		return ttfs[800], ttfs[4000], ttfs[7200]
	}
	p10i, p50i, p90i := quantiles(0)
	p10c, p50c, p90c := quantiles(0.9)
	if p50c <= p50i {
		t.Errorf("correlated median %g should exceed independent %g", p50c, p50i)
	}
	if (p90c-p10c)/p50c <= (p90i-p10i)/p50i {
		t.Error("correlation must widen the relative chip-to-chip spread")
	}
}

// TestChipSampleMinOverClasses: the chip TTF is the minimum over
// classes, so adding a much weaker class must dominate.
func TestChipSampleMinOverClasses(t *testing.T) {
	strong := SegmentClass{Count: 100, Median: 3e9, Sigma: 0.4}
	weak := SegmentClass{Count: 100, Median: 3e5, Sigma: 0.4}
	rng := rand.New(rand.NewSource(9))
	m := ChipModel{Classes: []SegmentClass{strong, weak}}
	for i := 0; i < 200; i++ {
		if ttf := m.SampleTTF(rng); ttf > 3e7 {
			t.Fatalf("sample %d: TTF %g not dominated by the weak class", i, ttf)
		}
	}
}

// TestChipSampleDeterministic: the same RNG stream reproduces the same
// samples — the substream property the lifetime job runner keys on.
func TestChipSampleDeterministic(t *testing.T) {
	m := ChipModel{Classes: []SegmentClass{{Count: 50, Median: 3e8, Sigma: 0.5}, {Count: 7, Median: 9e8, Sigma: 0.3}}, Rho: 0.25}
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if x, y := m.SampleTTF(a), m.SampleTTF(b); x != y {
			t.Fatalf("draw %d: %g != %g", i, x, y)
		}
	}
}

// TestChipLnWeakestLevel: the fused weakest-of-n level ln p agrees with
// the direct log(−expm1(log1p(−u)/n)) to 4.5e-16 relative for class
// sizes from 1 to 1e7, on a uniform grid that reaches u·1e-9 and
// 1 − u·1e-6 (both sides of the series' a ≤ 0.078 edge for every n), and
// holds the ln 1e-300 floor at u = 0 and wherever the level is below it.
func TestChipLnWeakestLevel(t *testing.T) {
	if want := math.Log(1e-300); lnLevelFloor != want {
		t.Fatalf("floor %v, want ln 1e-300 = %v", lnLevelFloor, want)
	}
	ref := func(u, n float64) float64 {
		return max(math.Log(-math.Expm1(math.Log1p(-u)/n)), lnLevelFloor)
	}
	var us []float64
	for u := 0.0005; u < 1; u += 0.0005 {
		us = append(us, u, u*1e-9, 1-u*1e-6)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		us = append(us, rng.Float64())
	}
	worst := 0.0
	for _, n := range []float64{1, 2, 7, 300, 5000, 2e5, 1e7} {
		for _, u := range us {
			got, want := lnWeakestLevel(u, n), ref(u, n)
			rel := math.Abs(got-want) / math.Abs(want)
			worst = max(worst, rel)
			if rel > 4.5e-16 {
				t.Fatalf("n=%g u=%.17g: ln p = %.17g, want %.17g (relative %.2g)", n, u, got, want, rel)
			}
		}
		if got := lnWeakestLevel(0, n); got != lnLevelFloor {
			t.Errorf("n=%g u=0: ln p = %v, want the floor %v", n, got, lnLevelFloor)
		}
		// a = 1e-305/n < 1e-300: the level is under the floor.
		if got := lnWeakestLevel(1e-305, n); got != lnLevelFloor {
			t.Errorf("n=%g u=1e-305: ln p = %v, want the floor %v", n, got, lnLevelFloor)
		}
	}
	t.Logf("worst relative difference %.2g", worst)
}

// TestChipDrawMatchesDirectExpression: one LnTTF draw equals the log of
// the direct chip minimum — the level p = −expm1(log1p(−u)/n) through
// InvNormCDF and exp for each class, from the same RNG stream — to 1e-14
// relative, on a 1-segment, a 7+3-segment and a 3-class million-segment
// census, and SampleTTF is exp of the same draw.
func TestChipDrawMatchesDirectExpression(t *testing.T) {
	direct := func(m *ChipModel, rng *rand.Rand) float64 {
		zc := rng.NormFloat64()
		ttf := math.Inf(1)
		for _, c := range m.Classes {
			p := max(-math.Expm1(math.Log1p(-rng.Float64())/float64(c.Count)), 1e-300)
			ttf = min(ttf, c.Median*math.Exp(c.Sigma*(math.Sqrt(m.Rho)*zc+math.Sqrt(1-m.Rho)*mathx.InvNormCDF(p))))
		}
		return ttf
	}
	for _, m := range []ChipModel{
		{Classes: []SegmentClass{{Count: 1, Median: 3e8, Sigma: 0.5}}},
		{Classes: []SegmentClass{{Count: 7, Median: 3e8, Sigma: 0.5}, {Count: 3, Median: 9e7, Sigma: 1.5}}, Rho: 0.3},
		{Classes: []SegmentClass{{Count: 1000000, Median: 3e9, Sigma: 0.5}, {Count: 5000, Median: 4e8, Sigma: 0.5}, {Count: 300, Median: 1e8, Sigma: 0.5}}, Rho: 0.9},
	} {
		d := m.Draw()
		a, b, c := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		for i := 0; i < 20000; i++ {
			got, want := d.LnTTF(a), math.Log(direct(&m, b))
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-14 {
				t.Fatalf("%d classes, draw %d: ln TTF %.17g, direct %.17g (relative %.2g)", len(m.Classes), i, got, want, rel)
			}
			if ttf := m.SampleTTF(c); ttf != math.Exp(got) {
				t.Fatalf("%d classes, draw %d: SampleTTF %.17g, want exp(LnTTF) %.17g", len(m.Classes), i, ttf, math.Exp(got))
			}
		}
	}
}
