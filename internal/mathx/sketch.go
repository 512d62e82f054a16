package mathx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrSketch reports an invalid quantile-sketch operation or a corrupt
// encoded sketch state.
var ErrSketch = errors.New("mathx: invalid quantile sketch")

// QuantileSketch is a deterministic mergeable quantile summary over a
// stream of float64s, built on logarithmically spaced bins (the
// DDSketch construction): value v > 0 lands in the bin
// (γ^(k−1), γ^k] with γ = (1+α)/(1−α), so reporting the bin's midpoint
// estimate 2γ^k/(γ+1) is within relative error α of v. Negative values
// use a mirrored bin store and zeros an exact counter, so the full real
// line is covered. NaNs and ±Inf are rejected (counted, never
// aggregated), and the exact min, max and count ride along. A stream
// held in log space enters through AddLog, which bins ln v directly.
//
// Determinism is structural, not scheduled: the state is a set of
// integer bin counters, and Merge is element-wise counter addition —
// commutative and associative — so any merge order, any grouping, and
// any serial/parallel split of the input stream produce bit-identical
// state and bit-identical quantiles. That is a stronger guarantee than
// a fixed compaction schedule: there is no compaction at all. It is
// what lets checkpointed jobs journal per-chunk sketch states and
// reassemble them after a crash into exactly the uninterrupted result.
//
// Memory is O(occupied key span), independent of the stream length —
// the O(1)-per-level aggregation the million-sample Monte Carlo and
// lifetime runs rely on. Each sign's bins are one dense counter window
// (binStore); for α = 0.1% that is ~1150 counters per decade of dynamic
// range, and no window can outgrow the keys a finite non-zero float64
// reaches, 727k counters (5.8 MB) at α's floor of 0.001.
type QuantileSketch struct {
	alpha      float64
	gamma      float64
	invLnGamma float64

	count    uint64 // aggregated values (zeros + all bins)
	rejected uint64 // NaN/±Inf inputs dropped by Add
	zeros    uint64
	min, max float64
	// lnMin and lnMax bound min and max in log space for AddLog: every
	// x with exp(x) < min has x < lnMin, and every x with exp(x) > max
	// has x > lnMax, so AddLog evaluates exp only for an x past one of
	// them and confirms it against the exact value.
	lnMin, lnMax float64
	neg, pos     binStore // neg is keyed on |v|
}

// minSketchAlpha is the finest accuracy a sketch takes. It bounds the
// bin stores: at α = 0.001 a key lies in [−372219, 354892], so a window
// holds at most 727k counters.
const minSketchAlpha = 0.001

// NewQuantileSketch returns an empty sketch with relative accuracy
// alpha ∈ [0.001, 0.5): every Quantile estimate q̂ of a true stream
// value q satisfies |q̂ − q| ≤ α·|q|.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if !(alpha >= minSketchAlpha && alpha < 0.5) {
		panic(fmt.Sprintf("mathx: quantile sketch alpha %g outside [%g, 0.5)", alpha, minSketchAlpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	s := &QuantileSketch{
		alpha:      alpha,
		gamma:      gamma,
		invLnGamma: 1 / math.Log(gamma),
		min:        math.Inf(1),
		max:        math.Inf(-1),
		lnMin:      math.Inf(1),
		lnMax:      math.Inf(-1),
	}
	// Every key a value can reach lies between those of the smallest
	// subnormal, 2⁻¹⁰⁷⁴, and MaxFloat64. The low end is taken from
	// ln 2⁻¹⁰⁷⁴ = −1074·ln 2, not math.Log, whose amd64 assembly returns
	// −709.09 to −708.40 for every subnormal: those keys lie inside the
	// range, and a blob binned on another platform still decodes.
	lo, hi := int32(math.Ceil(-1074*math.Ln2*s.invLnGamma)), s.key(math.MaxFloat64)
	s.neg = binStore{lo: lo, hi: hi}
	s.pos = binStore{lo: lo, hi: hi}
	return s
}

// binStore is one sign's bins: counts[i] is the count of bin key
// base+i. The window covers every occupied key and grows on demand in
// either direction, at least doubling toward the new key, so n adds
// cost O(n) amortized; it never grows past [lo, hi], the keys a finite
// non-zero float64 reaches at the sketch's alpha.
type binStore struct {
	counts []uint64
	base   int32
	lo, hi int32
}

// add adds c to bin k.
func (b *binStore) add(k int32, c uint64) {
	i := uint(k - b.base)
	if i >= uint(len(b.counts)) {
		b.grow(k)
		i = uint(k - b.base)
	}
	b.counts[i] += c
}

// merge adds o's bins to b.
func (b *binStore) merge(o *binStore) {
	for i, c := range o.counts {
		if c != 0 {
			b.add(o.base+int32(i), c)
		}
	}
}

// grow widens the window to hold key k.
func (b *binStore) grow(k int32) {
	n := len(b.counts)
	if n == 0 {
		b.counts, b.base = make([]uint64, 1), k
		return
	}
	lo, hi := int(b.base), int(b.base)+n-1
	if int(k) < lo {
		lo = min(int(k), max(int(b.lo), lo-n))
	} else {
		hi = max(int(k), min(int(b.hi), hi+n))
	}
	counts := make([]uint64, hi-lo+1)
	copy(counts[int(b.base)-lo:], b.counts)
	b.counts, b.base = counts, int32(lo)
}

// occupied returns the number of non-zero bins.
func (b *binStore) occupied() int {
	n := 0
	for _, c := range b.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Count returns the number of aggregated values.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Rejected returns the number of NaN/±Inf inputs Add dropped.
func (s *QuantileSketch) Rejected() uint64 { return s.rejected }

// Min returns the exact minimum aggregated value (+Inf when empty).
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the exact maximum aggregated value (−Inf when empty).
// A running mean/sum is deliberately absent: float accumulation is not
// associative, so it would break the merge-order bit-invariance the
// sketch promises.
func (s *QuantileSketch) Max() float64 { return s.max }

// key maps a magnitude m > 0 to its bin index k: m ∈ (γ^(k−1), γ^k].
func (s *QuantileSketch) key(m float64) int32 {
	return int32(math.Ceil(math.Log(m) * s.invLnGamma))
}

// binValue is the midpoint estimate of bin k, within α relative error
// of every value the bin covers.
func (s *QuantileSketch) binValue(k int32) float64 {
	return 2 * math.Exp(float64(k)/s.invLnGamma) / (s.gamma + 1)
}

// Add aggregates one value. NaN and ±Inf are rejected: counted in
// Rejected, never in Count, and never able to poison the quantiles.
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.rejected++
		return
	}
	switch {
	case v == 0:
		s.zeros++
	case v > 0:
		s.pos.add(s.key(v), 1)
	default:
		s.neg.add(s.key(-v), 1)
	}
	s.count++
	if v < s.min {
		s.min, s.lnMin = v, lnEdge(v, 1)
	}
	if v > s.max {
		s.max, s.lnMax = v, lnEdge(v, -1)
	}
}

// The range of x over which AddLog bins x itself: exp(x) is a finite
// normal float64 throughout, so ln(exp(x)) is x to within its rounding.
// The top stays below ln MaxFloat64 ≈ 709.78 because math.Exp's amd64
// assembly already returns +Inf from x ≈ 709.44.
const (
	addLogLo = -708
	addLogHi = 709
)

// AddLog aggregates exp(x), as Add(math.Exp(x)) would, for a caller that
// holds its values in log space: x is binned directly as ⌈x/ln γ⌉, and
// exp is evaluated only when x is a candidate new min or max, which is
// kept as the exact value exp(x). Outside [addLogLo, addLogHi], where
// exp(x) may be subnormal, 0 or +Inf, and for NaN, it is
// Add(math.Exp(x)).
func (s *QuantileSketch) AddLog(x float64) {
	if !(x >= addLogLo && x <= addLogHi) {
		s.Add(math.Exp(x))
		return
	}
	s.pos.add(int32(math.Ceil(x*s.invLnGamma)), 1)
	s.count++
	if x < s.lnMin || x > s.lnMax {
		// exp is monotone, so x itself bounds the new extreme.
		v := math.Exp(x)
		if v < s.min {
			s.min, s.lnMin = v, x
		}
		if v > s.max {
			s.max, s.lnMax = v, x
		}
	}
}

// lnEdge is the log-domain bound of an extreme v set by value (Add,
// Merge, decode): ln v moved outward — up for a min (dir = 1), down for
// a max (dir = −1) — by 1e-15·(1 + |ln v|), more than the rounding of
// log and exp together, so no x whose exp passes v falls inside it. A
// v ≤ 0 has no logarithm: no exp(x) is below such a min and every
// positive one is above such a max, so both bounds are −Inf.
func lnEdge(v, dir float64) float64 {
	if v <= 0 {
		return math.Inf(-1)
	}
	l := math.Log(v)
	return l + dir*1e-15*(1+math.Abs(l))
}

// Merge folds o into s. Both sketches must have been built with the
// same alpha (bin grids must coincide). Merging is counter addition,
// so any merge order yields bit-identical state.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o.alpha != s.alpha {
		return fmt.Errorf("%w: merge alpha %g != %g", ErrSketch, o.alpha, s.alpha)
	}
	s.count += o.count
	s.rejected += o.rejected
	s.zeros += o.zeros
	if o.min < s.min {
		s.min, s.lnMin = o.min, o.lnMin
	}
	if o.max > s.max {
		s.max, s.lnMax = o.max, o.lnMax
	}
	s.neg.merge(&o.neg)
	s.pos.merge(&o.pos)
	return nil
}

// Quantile estimates the p-quantile (p ∈ [0, 1]) of the aggregated
// stream: the value of rank ⌊p·(count−1)⌋+1 in ascending order, each
// binned value reported as its bin midpoint (≤ α relative error) and
// clamped to the exact [Min, Max]. Returns NaN on an empty sketch or
// an out-of-range p. Because rank arithmetic is exact integer counting
// and the bins are fixed by alpha alone, the estimate is a pure
// function of the aggregated multiset — independent of insertion or
// merge order.
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.count == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	rank := uint64(p*float64(s.count-1)) + 1
	clamp := func(v float64) float64 {
		return math.Min(math.Max(v, s.min), s.max)
	}
	var cum uint64
	// Ascending value order: most-negative first (descending |v| keys),
	// then zeros, then positives (ascending keys).
	// rank ≥ 1, so cum first reaches it at a non-zero bin.
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		cum += s.neg.counts[i]
		if cum >= rank {
			return clamp(-s.binValue(s.neg.base + int32(i)))
		}
	}
	cum += s.zeros
	if cum >= rank {
		return clamp(0)
	}
	for i, c := range s.pos.counts {
		cum += c
		if cum >= rank {
			return clamp(s.binValue(s.pos.base + int32(i)))
		}
	}
	return s.max
}

// Encoded sketch layout (big-endian), the canonical journaled form:
//
//	magic "dQS1" | alpha f64 | count u64 | rejected u64 | zeros u64 |
//	min f64 | max f64 | nneg u32 | npos u32 |
//	nneg×(key i32, count u64) | npos×(key i32, count u64)
//
// Bin runs are the non-zero bins in ascending key order, so encoding is
// canonical: equal states encode to equal bytes whatever their windows,
// and a decode/encode round trip is the identity on valid input.
const (
	sketchMagic   = "dQS1"
	sketchHdrLen  = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4
	sketchPairLen = 4 + 8
)

// MarshalBinary encodes the sketch state canonically.
func (s *QuantileSketch) MarshalBinary() ([]byte, error) {
	nneg, npos := s.neg.occupied(), s.pos.occupied()
	buf := make([]byte, 0, sketchHdrLen+(nneg+npos)*sketchPairLen)
	buf = append(buf, sketchMagic...)
	u64 := func(v uint64) { buf = binary.BigEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	f64(s.alpha)
	u64(s.count)
	u64(s.rejected)
	u64(s.zeros)
	f64(s.min)
	f64(s.max)
	buf = binary.BigEndian.AppendUint32(buf, uint32(nneg))
	buf = binary.BigEndian.AppendUint32(buf, uint32(npos))
	for _, b := range []*binStore{&s.neg, &s.pos} {
		for i, c := range b.counts {
			if c != 0 {
				buf = binary.BigEndian.AppendUint32(buf, uint32(b.base+int32(i)))
				u64(c)
			}
		}
	}
	return buf, nil
}

// DecodeQuantileSketch decodes and validates a MarshalBinary-encoded
// state. Every structural invariant is checked — magic, exact length,
// alpha range, sorted positive-count bin runs of keys a finite non-zero
// float64 reaches at that alpha, count consistency, and min/max sanity
// — so a torn or bit-flipped journal blob fails loudly with ErrSketch
// instead of yielding silently wrong quantiles, and no blob can make a
// bin window larger than a stream of values could.
func DecodeQuantileSketch(data []byte) (*QuantileSketch, error) {
	if len(data) < sketchHdrLen || string(data[:4]) != sketchMagic {
		return nil, fmt.Errorf("%w: bad header", ErrSketch)
	}
	off := 4
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(data[off:])
		off += 8
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	alpha := f64()
	if !(alpha >= minSketchAlpha && alpha < 0.5) {
		return nil, fmt.Errorf("%w: alpha %g outside [%g, 0.5)", ErrSketch, alpha, minSketchAlpha)
	}
	s := NewQuantileSketch(alpha)
	s.count = u64()
	s.rejected = u64()
	s.zeros = u64()
	s.min = f64()
	s.max = f64()
	nneg := binary.BigEndian.Uint32(data[off:])
	npos := binary.BigEndian.Uint32(data[off+4:])
	off += 8
	pairs := uint64(nneg) + uint64(npos)
	if uint64(len(data)-off) != pairs*sketchPairLen {
		return nil, fmt.Errorf("%w: %d trailing bytes for %d bins", ErrSketch, len(data)-off, pairs)
	}
	binned := s.zeros
	for i, b := range []*binStore{&s.neg, &s.pos} {
		n := int(nneg)
		if i == 1 {
			n = int(npos)
		}
		if n == 0 {
			continue
		}
		// The run's first and last keys size the window once both are
		// keys a value can reach, so a torn run allocates no more than
		// the span it claims; the loop checks every key between.
		first := int32(binary.BigEndian.Uint32(data[off:]))
		last := int32(binary.BigEndian.Uint32(data[off+(n-1)*sketchPairLen:]))
		if first < b.lo || last > b.hi {
			return nil, fmt.Errorf("%w: bin keys [%d, %d] outside [%d, %d] at alpha %g", ErrSketch, first, last, b.lo, b.hi, alpha)
		}
		if first > last {
			return nil, fmt.Errorf("%w: bin keys not strictly ascending", ErrSketch)
		}
		b.base, b.counts = first, make([]uint64, int(last)-int(first)+1)
		prev := int64(first) - 1
		for j := 0; j < n; j++ {
			k := int32(binary.BigEndian.Uint32(data[off:]))
			off += 4
			c := u64()
			if int64(k) <= prev || k > last {
				return nil, fmt.Errorf("%w: bin keys not strictly ascending", ErrSketch)
			}
			if c == 0 {
				return nil, fmt.Errorf("%w: empty bin run", ErrSketch)
			}
			nb := binned + c
			if nb < binned {
				return nil, fmt.Errorf("%w: bin count overflow", ErrSketch)
			}
			binned, prev = nb, int64(k)
			b.counts[k-first] = c
		}
	}
	if binned != s.count {
		return nil, fmt.Errorf("%w: bins hold %d values, header says %d", ErrSketch, binned, s.count)
	}
	if math.IsNaN(s.min) || math.IsNaN(s.max) {
		return nil, fmt.Errorf("%w: NaN summary field", ErrSketch)
	}
	if s.count == 0 {
		if !math.IsInf(s.min, 1) || !math.IsInf(s.max, -1) {
			return nil, fmt.Errorf("%w: non-empty summary on empty sketch", ErrSketch)
		}
	} else if s.min > s.max || math.IsInf(s.min, 0) || math.IsInf(s.max, 0) {
		return nil, fmt.Errorf("%w: min %g / max %g", ErrSketch, s.min, s.max)
	}
	s.lnMin, s.lnMax = lnEdge(s.min, 1), lnEdge(s.max, -1)
	return s, nil
}
