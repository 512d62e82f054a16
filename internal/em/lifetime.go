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
// logarithm of the result for a sketch that bins ln TTF. Samples are
// drawn a block at a time through a ChipBlock (NewBlock).
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

// blockUniforms bounds the uniforms a ChipBlock holds (samples ×
// classes): 16 KB, so a block's draws stay in cache whatever the census
// size, and a census of 2048 classes or more draws one sample a block.
const blockUniforms = 2048

// ChipBlock is scratch for drawing chip samples a block at a time. The
// CPU overlaps the long dependent math chains of independent samples
// when the draw runs stage by stage over the block rather than sample
// by sample. Each sample's RNG draws and float operations are its own
// and in a fixed order, so its value does not depend on the block it
// is drawn in or on the block's length. A block belongs to one
// goroutine; the ChipDraw it reads stays shared.
type ChipBlock struct {
	d  *ChipDraw
	zc []float64 // each sample's chip-wide normal
	us []float64 // uniforms, sample-major: sample j's class i at j·classes + i
	x  []float64 // each sample's ln TTF
}

// NewBlock returns a block of max(1, 2048/classes) samples.
func (d *ChipDraw) NewBlock() *ChipBlock {
	k := len(d.classes)
	n := max(1, blockUniforms/k)
	return &ChipBlock{d: d, zc: make([]float64, n), us: make([]float64, n*k), x: make([]float64, n)}
}

// Len returns the number of samples the block holds.
func (b *ChipBlock) Len() int { return len(b.x) }

// Draw draws sample j's randomness from rng. The draw order is fixed —
// one chip-wide normal, then one uniform per class in ChipModel.Classes
// order — so a given RNG stream always yields the same sample; callers
// that key substreams on the sample index get order-independent Monte
// Carlo for free.
func (b *ChipBlock) Draw(j int, rng *rand.Rand) {
	k := len(b.d.classes)
	b.zc[j] = rng.NormFloat64()
	us := b.us[j*k : (j+1)*k]
	for i := range us {
		us[i] = rng.Float64()
	}
}

// LnTTF returns the natural log of the chip time-to-fail (seconds) of
// samples [0, n), each drawn by Draw. The slice is the block's own,
// valid until its next LnTTF. The first-visited class is evaluated for
// the whole block, ln p (lnWeakestLevel) first and then the inverse,
// before each sample visits the later classes with the skip test.
func (b *ChipBlock) LnTTF(n int) []float64 {
	k, x := len(b.d.classes), b.x[:n]
	c := &b.d.classes[0]
	for j := range x {
		x[j] = lnWeakestLevel(b.us[j*k+c.idx], c.n)
	}
	for j, lnp := range x {
		x[j] = c.lnMedian + c.sc*b.zc[j] + c.si*mathx.InvNormCDFLog(lnp)
	}
	for j := range x {
		us, zc, xj := b.us[j*k:(j+1)*k], b.zc[j], x[j]
		for i := 1; i < k; i++ {
			c := &b.d.classes[i]
			u := us[c.idx]
			a := c.lnMedian + c.sc*zc
			if c.skips(a-xj, u) {
				continue
			}
			if t := a + c.si*mathx.InvNormCDFLog(lnWeakestLevel(u, c.n)); t < xj {
				xj = t
			}
		}
		x[j] = xj
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
