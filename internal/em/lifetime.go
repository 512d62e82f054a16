package em

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dsmtherm/internal/mathx"
)

// Chip-level statistical lifetime: a chip is a weakest-link series system
// of many interconnect segments, grouped into classes that share one
// operating point (and hence one Black-equation median TTF). Segment
// failures are lognormal but not independent — process batch effects
// correlate every segment's strength — so the model splits each
// segment's ln TTF into a chip-wide component and an independent one:
//
//	ln TTF = ln median + σ·(√ρ·Zc + √(1−ρ)·Zi)
//
// with Zc drawn once per chip and Zi per segment. Conditional on Zc the
// segments of a class are i.i.d., which lets one draw sample the minimum
// of Count segments in closed form instead of looping: the conditional
// cumulative level of the weakest of n i.i.d. draws is
// p = 1 − (1−u)^(1/n) for u uniform, so
//
//	min ln TTF = ln median + σ·(√ρ·Zc + √(1−ρ)·Φ⁻¹(p)).
//
// A chip sample is therefore O(classes), not O(segments) — the property
// that makes million-sample chip Monte Carlo affordable.

// SegmentClass aggregates Count segments sharing one lognormal TTF.
type SegmentClass struct {
	// Count is the number of segments in the class.
	Count int
	// Median is the per-segment median time to fail t50, seconds.
	Median float64
	// Sigma is the lognormal shape (std dev of ln TTF).
	Sigma float64
}

// ChipModel is the weakest-link chip: it fails when its first segment
// fails.
type ChipModel struct {
	Classes []SegmentClass
	// Rho ∈ [0, 1) is the chip-wide lognormal correlation: 0 makes all
	// segments independent, values near 1 make the chip fail as one.
	Rho float64
}

// Validate checks the model.
func (m *ChipModel) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("%w: chip model with no segment classes", ErrInvalid)
	}
	if !(m.Rho >= 0 && m.Rho < 1) {
		return fmt.Errorf("%w: correlation rho %g outside [0, 1)", ErrInvalid, m.Rho)
	}
	for i, c := range m.Classes {
		if c.Count < 1 {
			return fmt.Errorf("%w: class %d count %d", ErrInvalid, i, c.Count)
		}
		if !(c.Median > 0) || math.IsInf(c.Median, 0) {
			return fmt.Errorf("%w: class %d median TTF %g", ErrInvalid, i, c.Median)
		}
		if !(c.Sigma > 0) {
			return fmt.Errorf("%w: class %d sigma %g", ErrInvalid, i, c.Sigma)
		}
	}
	return nil
}

// ChipDraw is a ChipModel prepared for sampling: the per-class constants
// of the log-space draw, computed once. Sampling draws
//
//	ln TTF_c = ln median_c + σ_c·√ρ·Zc + σ_c·√(1−ρ)·Φ⁻¹(p_c)
//
// for each class from ln p_c (lnWeakestLevel) through InvNormCDFLog and
// keeps the minimum over classes, all in log space: no exp, no p, and no
// logarithm of the result for a sketch that bins ln TTF.
//
// Most classes of a real census never hold the chip minimum, so the draw
// visits the classes likeliest minimum first and skips any class whose
// closed-form lower bound on ln TTF_c is not below the running minimum
// (classDraw.skips). The minimum of a set of floats does not depend on
// the order it is taken in, and a skipped class could not have lowered
// it, so the draw returns the same float an evaluation of every class
// gives.
type ChipDraw struct {
	classes []classDraw // ascending by the median weakest-of-n at Zc = 0
}

type classDraw struct {
	lnMedian float64 // ln of the per-segment median TTF
	sc, si   float64 // σ√ρ and σ√(1−ρ)
	n        float64 // segment count
	idx      int     // position in ChipModel.Classes: which uniform it draws
	log2n1   float64 // log₂ n − 1
	bound2   float64 // 2 ln 2 · σ²(1−ρ), the scale of the squared bound
}

// Draw prepares m for sampling. Validate first: Draw assumes a valid
// model.
func (m *ChipModel) Draw() ChipDraw {
	d := ChipDraw{classes: make([]classDraw, len(m.Classes))}
	sc, si := math.Sqrt(m.Rho), math.Sqrt(1-m.Rho)
	key := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		cd := classDraw{
			lnMedian: math.Log(c.Median),
			sc:       c.Sigma * sc,
			si:       c.Sigma * si,
			n:        float64(c.Count),
			idx:      i,
		}
		cd.log2n1 = math.Log2(cd.n) - 1
		cd.bound2 = 2 * math.Ln2 * cd.si * cd.si
		d.classes[i] = cd
		key[i] = cd.lnMedian + cd.si*mathx.InvNormCDFLog(lnWeakestLevel(0.5, cd.n))
	}
	sort.SliceStable(d.classes, func(a, b int) bool {
		return key[d.classes[a].idx] < key[d.classes[b].idx]
	})
	return d
}

// LnTTF draws the natural log of one chip time-to-fail (seconds). The
// draw order is fixed — one chip-wide normal, then one uniform per class
// in ChipModel.Classes order, into us (len ≥ the class count) — so a
// given RNG stream always yields the same sample; callers that key
// substreams on the sample index get order-independent Monte Carlo for
// free. us is scratch: it lets the classes be visited in another order
// than they draw, and leaves d unchanged, so concurrent callers share
// one ChipDraw.
func (d *ChipDraw) LnTTF(rng *rand.Rand, us []float64) float64 {
	zc := rng.NormFloat64()
	us = us[:len(d.classes)]
	for i := range us {
		us[i] = rng.Float64()
	}
	c := &d.classes[0]
	x := c.lnMedian + c.sc*zc + c.si*mathx.InvNormCDFLog(lnWeakestLevel(us[c.idx], c.n))
	for i := 1; i < len(d.classes); i++ {
		c := &d.classes[i]
		u := us[c.idx]
		a := c.lnMedian + c.sc*zc
		if c.skips(a-x, u) {
			continue
		}
		if t := a + c.si*mathx.InvNormCDFLog(lnWeakestLevel(u, c.n)); t < x {
			x = t
		}
	}
	return x
}

// skipSlack is δ in skips: relative and absolute room for the rounding
// of ln p, AS241's rational and the bound arithmetic, all far below it.
// The bound is tight only at n = 1, u = ½, where Φ⁻¹(p) = 0 = −B.
const skipSlack = 1e-9

// skips reports that the class cannot lower the running minimum x given
// h = ln median + σ√ρ·Zc − x and its uniform u: ln TTF_c ≥ x. The
// weakest-of-n level p = 1 − (1−u)^(1/n) is convex in u with slope 1/n
// at 0, so p ≥ u/n ≥ 2^e/n with e = ⌊log₂ u⌋; the Chernoff bound
// Φ(y) ≤ ½e^(−y²/2) for y ≤ 0 (and Φ⁻¹(p) ≥ 0 for p ≥ ½) then gives
//
//	Φ⁻¹(p) ≥ −B,  B² = 2 ln 2 · max(0, log₂ n − 1 − e),
//
// and the class is skipped when h > σ√(1−ρ)·B, with slack. The floor
// ln 1e-300 on ln p only raises Φ⁻¹(p), and keeps the bound for u = 0
// and subnormal u, whose exponent bits read e = −1023.
func (c *classDraw) skips(h, u float64) bool {
	if !(h > 0) {
		return false
	}
	k := max(0, c.log2n1-log2Floor(u))
	return h*h > c.bound2*k*(1+skipSlack)+skipSlack
}

// log2Floor returns ⌊log₂ u⌋ for a normal u > 0, read from its exponent
// bits; 0 and subnormals read −1023.
func log2Floor(u float64) float64 {
	return float64(int(math.Float64bits(u)>>52&0x7ff) - 1023)
}

// SampleTTF draws one chip time-to-fail (seconds): exp of one
// m.Draw().LnTTF draw, with the same RNG draw order. It prepares the
// draw on every call; a caller sampling many chips holds a ChipDraw.
func (m *ChipModel) SampleTTF(rng *rand.Rand) float64 {
	d := m.Draw()
	return math.Exp(d.LnTTF(rng, make([]float64, len(m.Classes))))
}

// lnLevelFloor is ln 1e-300, the floor of the weakest-of-n level: the
// deepest tail AS241 is accurate in.
var lnLevelFloor = math.Log(1e-300)

// lnWeakestLevel returns ln p for the weakest of n i.i.d. segments' level
// p = 1 − (1−u)^(1/n), u uniform, floored at ln 1e-300. With
// a = −ln(1−u)/n (log1p, so n in the millions does not round p to 0 or
// 1), p = 1 − e^−a and
//
//	ln p = ln a + ln((1 − e^−a)/a) = ln a − a/2 + a²/24 − a⁴/2880 + a⁶/181440 − …
//
// (the even series of ln(sinh(a/2)/(a/2)), less a/2). For a ≤ 0.078,
// which holds for every p below 0.075 (AS241's tail piece), the first
// dropped term a⁸/9676800 is under 1.4e-16, so ln p costs one log1p and
// one log; above, ln p = ln(−expm1(−a)).
func lnWeakestLevel(u, n float64) float64 {
	a := -math.Log1p(-u) / n
	var lnp float64
	if a <= 0.078 {
		a2 := a * a
		lnp = math.Log(a) + (a2*(1.0/24-a2*(1.0/2880-a2*(1.0/181440))) - a/2)
	} else {
		lnp = math.Log(-math.Expm1(-a))
	}
	return max(lnp, lnLevelFloor)
}
