package em

import (
	"fmt"
	"math"
	"math/rand"

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
type ChipDraw struct {
	classes []classDraw
}

type classDraw struct {
	lnMedian float64 // ln of the per-segment median TTF
	sc, si   float64 // σ√ρ and σ√(1−ρ)
	n        float64 // segment count
}

// Draw prepares m for sampling. Validate first: Draw assumes a valid
// model.
func (m *ChipModel) Draw() ChipDraw {
	d := ChipDraw{classes: make([]classDraw, len(m.Classes))}
	sc, si := math.Sqrt(m.Rho), math.Sqrt(1-m.Rho)
	for i, c := range m.Classes {
		d.classes[i] = classDraw{
			lnMedian: math.Log(c.Median),
			sc:       c.Sigma * sc,
			si:       c.Sigma * si,
			n:        float64(c.Count),
		}
	}
	return d
}

// LnTTF draws the natural log of one chip time-to-fail (seconds). The
// draw order is fixed — one chip-wide normal, then one uniform per class
// in slice order — so a given RNG stream always yields the same sample;
// callers that key substreams on the sample index get order-independent
// Monte Carlo for free.
func (d *ChipDraw) LnTTF(rng *rand.Rand) float64 {
	zc := rng.NormFloat64()
	x := math.Inf(1)
	for i := range d.classes {
		c := &d.classes[i]
		t := c.lnMedian + c.sc*zc + c.si*mathx.InvNormCDFLog(lnWeakestLevel(rng.Float64(), c.n))
		if t < x {
			x = t
		}
	}
	return x
}

// SampleTTF draws one chip time-to-fail (seconds): exp of one
// m.Draw().LnTTF draw, with the same RNG draw order. It prepares the
// draw on every call; a caller sampling many chips holds a ChipDraw.
func (m *ChipModel) SampleTTF(rng *rand.Rand) float64 {
	d := m.Draw()
	return math.Exp(d.LnTTF(rng))
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
