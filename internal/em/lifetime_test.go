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

// lnTTFs draws n chip samples of m from rng's stream through the block
// kernel, blockLen samples a block (0 or more than the block holds: the
// block's full length), and returns their ln TTF in sample order.
func lnTTFs(m *ChipModel, rng *rand.Rand, n, blockLen int) []float64 {
	d := m.Draw()
	b := d.NewBlock()
	if blockLen == 0 || blockLen > b.Len() {
		blockLen = b.Len()
	}
	out := make([]float64, 0, n)
	for len(out) < n {
		k := min(blockLen, n-len(out))
		for j := 0; j < k; j++ {
			b.Draw(j, rng)
		}
		out = append(out, b.LnTTF(k)...)
	}
	return out
}

// ttfs draws n chip TTFs (seconds) of m from rng's stream.
func ttfs(m *ChipModel, rng *rand.Rand, n int) []float64 {
	out := lnTTFs(m, rng, n, 0)
	for i, x := range out {
		out[i] = math.Exp(x)
	}
	return out
}

// TestChipSampleMatchesSeriesQuantile cross-checks the closed-form
// weakest-of-n draw against the analytic series quantile at rho = 0:
// empirical quantiles of the chip TTF must converge on SeriesQuantile.
func TestChipSampleMatchesSeriesQuantile(t *testing.T) {
	l := Lognormal{Median: 3e8, Sigma: 0.5}
	const n = 5000
	m := ChipModel{Classes: []SegmentClass{{Count: n, Median: l.Median, Sigma: l.Sigma}}}
	const samples = 20000
	ttfs := ttfs(&m, rand.New(rand.NewSource(17)), samples)
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
		ttfs := ttfs(&m, rand.New(rand.NewSource(4)), 8000)
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
	m := ChipModel{Classes: []SegmentClass{strong, weak}}
	for i, ttf := range ttfs(&m, rand.New(rand.NewSource(9)), 200) {
		if ttf > 3e7 {
			t.Fatalf("sample %d: TTF %g not dominated by the weak class", i, ttf)
		}
	}
}

// TestChipSampleDeterministic: the same RNG stream reproduces the same
// samples — the substream property the lifetime job runner keys on.
func TestChipSampleDeterministic(t *testing.T) {
	m := ChipModel{Classes: []SegmentClass{{Count: 50, Median: 3e8, Sigma: 0.5}, {Count: 7, Median: 9e8, Sigma: 0.3}}, Rho: 0.25}
	a := ttfs(&m, rand.New(rand.NewSource(3)), 100)
	b := ttfs(&m, rand.New(rand.NewSource(3)), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %g != %g", i, a[i], b[i])
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

// TestChipDrawMatchesDirectExpression: each block-kernel draw equals the
// log of the direct chip minimum — the level p = −expm1(log1p(−u)/n)
// through InvNormCDF and exp for each class, from the same RNG stream —
// to 1e-14 relative, on a 1-segment, a 7+3-segment and a 3-class
// million-segment census.
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
		b := rand.New(rand.NewSource(11))
		for i, got := range lnTTFs(&m, rand.New(rand.NewSource(11)), 20000, 0) {
			want := math.Log(direct(&m, b))
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-14 {
				t.Fatalf("%d classes, draw %d: ln TTF %.17g, direct %.17g (relative %.2g)", len(m.Classes), i, got, want, rel)
			}
		}
	}
}

// exhaustiveLnTTF is the draw without the dominance skip or the blocks,
// the reference the block kernel must reproduce bit for bit: one sample,
// every class evaluated in slice order, each from its own uniform, with
// the per-class constants and the expression the draw uses.
func exhaustiveLnTTF(m *ChipModel, rng *rand.Rand) float64 {
	sc, si := math.Sqrt(m.Rho), math.Sqrt(1-m.Rho)
	zc := rng.NormFloat64()
	x := math.Inf(1)
	for _, c := range m.Classes {
		lnMedian, csc, csi := math.Log(c.Median), c.Sigma*sc, c.Sigma*si
		t := lnMedian + csc*zc + csi*mathx.InvNormCDFLog(lnWeakestLevel(rng.Float64(), float64(c.Count)))
		if t < x {
			x = t
		}
	}
	return x
}

// skipBound returns B(e) for class c and uniform u, the bound
// Φ⁻¹(p) ≥ −B the skip test relies on, from the constants and the
// exponent read the test uses (its squared form is B²·σ²(1−ρ)).
func skipBound(c *classDraw, u float64) float64 {
	return math.Sqrt(c.bound2*max(0, c.log2n1-log2Floor(u))) / c.si
}

// drawOf returns the prepared class that model class idx became.
func drawOf(t testing.TB, d *ChipDraw, idx int) *classDraw {
	for i := range d.classes {
		if d.classes[i].idx == idx {
			return &d.classes[i]
		}
	}
	t.Fatalf("class %d missing from the draw", idx)
	return nil
}

// TestChipSkipBound: the computed level the draw would evaluate,
// Φ⁻¹ = InvNormCDFLog(lnWeakestLevel(u, n)), is never below −B(e), the
// bound the skip test prunes with, for n from 1 to 2³¹ at every power
// of two 2^−k (k = 1…63) and its two neighbours, at 1 − 2⁻⁵³, at u = 0,
// and at 2e5 random u per n (half uniform, half log-uniform down to
// 2⁻⁶³). The bound is tight (margin 0) only at n = 1, u = ½, which is
// why the skip test carries a slack.
func TestChipSkipBound(t *testing.T) {
	us := []float64{0, 1 - 0x1p-53}
	for k := 1; k <= 63; k++ {
		u := math.Ldexp(1, -k)
		us = append(us, math.Nextafter(u, 0), u, math.Nextafter(u, 1))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100000; i++ {
		us = append(us, rng.Float64(), math.Ldexp(1+rng.Float64(), -1-rng.Intn(63)))
	}
	worst, worstN, worstU := math.Inf(1), 0.0, 0.0
	for _, n := range []float64{1, 2, 3, 7, 300, 5000, 2e5, 1e7, 1 << 31} {
		m := ChipModel{Classes: []SegmentClass{{Count: int(n), Median: 1, Sigma: 1}}}
		d := m.Draw()
		c := drawOf(t, &d, 0)
		for _, u := range us {
			y := mathx.InvNormCDFLog(lnWeakestLevel(u, n))
			b := skipBound(c, u)
			if y < -b {
				t.Fatalf("n=%g u=%.17g (e=%g): Φ⁻¹(p) = %.17g below the bound −%.17g", n, u, log2Floor(u), y, b)
			}
			if margin := y + b; margin < worst {
				worst, worstN, worstU = margin, n, u
			}
		}
	}
	t.Logf("worst margin %.3g at n=%g u=%.17g", worst, worstN, worstU)
}

// randomCensus draws a census for the skip tests: classes whose medians
// spread over a few σ so that the minimum moves between them, σ from 0.1
// to 5 per class, counts log-uniform from 1 to 1e6, ρ up to 0.999.
func randomCensus(rng *rand.Rand, classes int) ChipModel {
	m := ChipModel{Rho: []float64{0, 0.3, 0.9, 0.999, rng.Float64() * 0.999}[rng.Intn(5)]}
	for i := 0; i < classes; i++ {
		sigma := 0.1 + 4.9*rng.Float64()
		m.Classes = append(m.Classes, SegmentClass{
			Count:  int(math.Exp(rng.Float64() * math.Log(1e6))),
			Median: math.Exp(20 + 2*sigma*rng.NormFloat64()),
			Sigma:  sigma,
		})
	}
	return m
}

// TestChipDrawMatchesExhaustive: the block kernel returns the same float
// as the exhaustive loop on the same RNG stream — bit-identical, so every
// sketch bin, quantile and extreme of a lifetime report is unchanged —
// at block lengths 1, 2, 7 and the block's full length, on 300 random
// censuses of 1–8 classes and 4096 classes, on identical classes (where
// most draws evaluate several) and one-class censuses, and on a tiered
// census where the hottest class always holds the minimum.
func TestChipDrawMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type census struct {
		m     ChipModel
		draws int
	}
	var cs []census
	for i := 0; i < 300; i++ {
		if i%50 == 49 {
			cs = append(cs, census{randomCensus(rng, 4096), 40})
			continue
		}
		cs = append(cs, census{randomCensus(rng, 1+rng.Intn(8)), 2000})
	}
	for _, rho := range []float64{0, 0.3, 0.9} {
		for _, n := range []int{1, 300} {
			one := SegmentClass{Count: n, Median: 3e8, Sigma: 0.5}
			cs = append(cs,
				census{ChipModel{Classes: []SegmentClass{one}, Rho: rho}, 20000},
				census{ChipModel{Classes: []SegmentClass{one, one, one}, Rho: rho}, 20000})
		}
		cs = append(cs, census{ChipModel{Classes: []SegmentClass{
			{Count: 200000, Median: 3e10, Sigma: 0.5}, {Count: 5000, Median: 2e9, Sigma: 0.5}, {Count: 300, Median: 1e8, Sigma: 0.5},
		}, Rho: rho}, 20000})
	}
	for ci, c := range cs {
		seed := rng.Int63()
		b := rand.New(rand.NewSource(seed))
		want := make([]float64, c.draws)
		for i := range want {
			want[i] = exhaustiveLnTTF(&c.m, b)
		}
		for _, blockLen := range []int{1, 2, 7, 0} {
			for i, got := range lnTTFs(&c.m, rand.New(rand.NewSource(seed)), c.draws, blockLen) {
				if got != want[i] {
					t.Fatalf("census %d (%d classes, rho %g), block length %d, draw %d: block kernel %.17g, exhaustive %.17g",
						ci, len(c.m.Classes), c.m.Rho, blockLen, i, got, want[i])
				}
			}
		}
	}
}

// FuzzChipDrawBound fuzzes a uniform's bits, a class size, σ and ρ: the
// computed weakest-of-n level of that uniform must respect the skip
// bound, and the block kernel's draw of a census built around the class
// must equal the exhaustive one.
func FuzzChipDrawBound(f *testing.F) {
	f.Add(uint64(0x3fe0000000000000), uint32(1), 0.5, 0.3, 0.0)
	f.Add(uint64(0x3c00000000000000), uint32(300), 5.0, 0.999, 2.0)
	f.Add(uint64(1), uint32(1<<31-1), 0.1, 0.0, -3.0)
	f.Add(uint64(0), uint32(7), 1.0, 0.9, 0.5)
	f.Fuzz(func(t *testing.T, ubits uint64, n uint32, sigma, rho, shift float64) {
		u := math.Float64frombits(ubits &^ (1 << 63))
		if !(u < 1) || n == 0 || !(sigma > 0 && sigma <= 5) || !(rho >= 0 && rho < 1) || !(math.Abs(shift) <= 20) {
			t.Skip()
		}
		m := ChipModel{Classes: []SegmentClass{
			{Count: int(n), Median: 1e9, Sigma: sigma},
			{Count: 1 + int(n/300), Median: 1e9 * math.Exp(shift), Sigma: 0.5 * sigma},
			{Count: 1, Median: 1e9 * math.Exp(-shift), Sigma: sigma},
		}, Rho: rho}
		d := m.Draw()
		c := drawOf(t, &d, 0)
		y := mathx.InvNormCDFLog(lnWeakestLevel(u, float64(n)))
		if b := skipBound(c, u); y < -b {
			t.Fatalf("n=%d u=%.17g: Φ⁻¹(p) = %.17g below the bound −%.17g", n, u, y, b)
		}
		b := rand.New(rand.NewSource(int64(ubits)))
		for i, got := range lnTTFs(&m, rand.New(rand.NewSource(int64(ubits))), 64, 0) {
			if want := exhaustiveLnTTF(&m, b); got != want {
				t.Fatalf("draw %d: block kernel %.17g, exhaustive %.17g", i, got, want)
			}
		}
	})
}
