package mathx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSplitMix64SeedIsO1State pins the property the Monte Carlo kernel
// depends on: reseeding is just a state assignment, so the same seed
// always reproduces the same stream, and interleaved reseeds cannot
// leak state between substreams.
func TestSplitMix64Substreams(t *testing.T) {
	var a, b SplitMix64
	a.Seed(42)
	want := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
	// Pollute b with another stream, then reseed: must match exactly.
	b.Seed(7)
	b.Uint64()
	b.Seed(42)
	for i, w := range want {
		if got := b.Uint64(); got != w {
			t.Fatalf("draw %d after reseed = %#x, want %#x", i, got, w)
		}
	}
	if SeedMix(1, 3) == SeedMix(1, 4) || SeedMix(1, 3) == SeedMix(2, 3) {
		t.Fatal("SeedMix collisions across adjacent indices/seeds")
	}
}

// TestSplitMix64ViaRand checks the Source64 contract through math/rand:
// NormFloat64 streams from the same seed are identical.
func TestSplitMix64ViaRand(t *testing.T) {
	src1, src2 := &SplitMix64{}, &SplitMix64{}
	r1, r2 := rand.New(src1), rand.New(src2)
	src1.Seed(99)
	src2.Seed(99)
	for i := 0; i < 100; i++ {
		if a, b := r1.NormFloat64(), r2.NormFloat64(); a != b {
			t.Fatalf("draw %d: %g != %g", i, a, b)
		}
	}
}

// exactRank returns the sketch's rank convention applied to exact
// sorted data: the value of rank ⌊p·(n−1)⌋+1.
func exactRank(sorted []float64, p float64) float64 {
	return sorted[int(p*float64(len(sorted)-1))]
}

// TestSketchVsExactSort: sketch quantiles agree with the exact order
// statistic under the same rank convention within the documented
// relative error bound alpha, across sign-mixed lognormal-ish data.
func TestSketchVsExactSort(t *testing.T) {
	const alpha = 0.01
	rng := rand.New(rand.NewSource(1))
	s := NewQuantileSketch(alpha)
	data := make([]float64, 20000)
	for i := range data {
		v := math.Exp(2 * rng.NormFloat64())
		if i%3 == 0 {
			v = -v
		}
		if i%1000 == 0 {
			v = 0
		}
		data[i] = v
		s.Add(v)
	}
	sort.Float64s(data)
	for _, p := range []float64{0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1} {
		want := exactRank(data, p)
		got := s.Quantile(p)
		if math.Abs(got-want) > alpha*math.Abs(want)+1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g ± %g%%", p, got, want, 100*alpha)
		}
	}
	if s.Min() != data[0] || s.Max() != data[len(data)-1] {
		t.Errorf("min/max = %g/%g, want exact %g/%g", s.Min(), s.Max(), data[0], data[len(data)-1])
	}
}

// TestSketchEdgeCases: empty, single sample, and NaN/Inf rejection.
func TestSketchEdgeCases(t *testing.T) {
	s := NewQuantileSketch(0.01)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch must yield NaN quantiles")
	}
	if s.Count() != 0 {
		t.Errorf("empty count = %d", s.Count())
	}

	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	if s.Count() != 0 || s.Rejected() != 3 {
		t.Errorf("after NaN/Inf: count=%d rejected=%d, want 0/3", s.Count(), s.Rejected())
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("rejected inputs must not produce quantiles")
	}

	s.Add(3.5)
	for _, p := range []float64{0, 0.5, 1} {
		if got := s.Quantile(p); got != 3.5 {
			t.Errorf("single-sample Quantile(%g) = %g, want exactly 3.5 (min/max clamp)", p, got)
		}
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-sample summary: min=%g max=%g", s.Min(), s.Max())
	}
	if !math.IsNaN(s.Quantile(math.NaN())) || !math.IsNaN(s.Quantile(1.5)) {
		t.Error("out-of-range p must yield NaN")
	}
}

// TestSketchMergeOrderInvariant is the determinism rule: any split of
// the stream, merged in any order and any grouping, yields
// bit-identical encoded state (and hence bit-identical quantiles). The
// second stream's parts sit near 1e200, near 1e-200 and at both, so the
// bin windows grow up and down as the merges reach them.
func TestSketchMergeOrderInvariant(t *testing.T) {
	const alpha = 0.001
	rng := rand.New(rand.NewSource(5))
	narrow := make([]float64, 9001)
	for i := range narrow {
		narrow[i] = math.Exp(rng.NormFloat64()) - 0.5
	}
	wide := make([]float64, 9001)
	for i := range wide {
		scale := 1e-200
		if i < 17 || (i >= 4000 && i%2 == 0) {
			scale = 1e200
		}
		wide[i] = scale * math.Exp(rng.NormFloat64())
		if i%3 == 0 {
			wide[i] = -wide[i]
		}
	}
	for name, vals := range map[string][]float64{"narrow": narrow, "wide": wide} {
		checkMergeOrder(t, name, alpha, vals)
	}

	if err := NewQuantileSketch(alpha).Merge(NewQuantileSketch(0.01)); err == nil {
		t.Fatal("merging mismatched alphas must fail")
	}
}

// checkMergeOrder splits vals into three uneven parts and checks that
// every merge order, and a nested grouping, encodes as the serial
// stream does.
func checkMergeOrder(t *testing.T, name string, alpha float64, vals []float64) {
	t.Helper()
	serial := NewQuantileSketch(alpha)
	for _, v := range vals {
		serial.Add(v)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Three uneven parts merged in every order, plus a nested grouping.
	bounds := [][2]int{{0, 17}, {17, 4000}, {4000, len(vals)}}
	part := func(i int) *QuantileSketch {
		s := NewQuantileSketch(alpha)
		for _, v := range vals[bounds[i][0]:bounds[i][1]] {
			s.Add(v)
		}
		return s
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
		m := NewQuantileSketch(alpha)
		for _, i := range order {
			if err := m.Merge(part(i)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: merge order %v: state differs from serial", name, order)
		}
	}
	// Nested: (2 ⊕ 1) ⊕ 0.
	inner := part(2)
	if err := inner.Merge(part(1)); err != nil {
		t.Fatal(err)
	}
	if err := inner.Merge(part(0)); err != nil {
		t.Fatal(err)
	}
	got, err := inner.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: nested merge grouping: state differs from serial", name)
	}
}

// TestSketchDecodeBounds: decode takes alpha from 0.001 and bin keys a
// finite non-zero float64 reaches at the blob's alpha — at 0.001 those
// from the smallest subnormal's, −372219, to MaxFloat64's, 354892, on
// either sign — and rejects alpha 0.0005 and a key one past either end,
// so no blob makes a bin window longer than a stream could; a window
// that doubles toward a key stops at the ends.
func TestSketchDecodeBounds(t *testing.T) {
	s := NewQuantileSketch(0.001)
	for _, b := range []*binStore{&s.neg, &s.pos} {
		if b.lo != -372219 || b.hi != 354892 {
			t.Fatalf("reachable keys [%d, %d], want [-372219, 354892]", b.lo, b.hi)
		}
	}
	b := binStore{lo: -10, hi: 10}
	for _, k := range []int32{0, 6, 9, 10, -6, -9, -10} {
		b.add(k, 1)
		if end := int(b.base) + len(b.counts) - 1; b.base < b.lo || end > int(b.hi) {
			t.Fatalf("after key %d: window [%d, %d] outside [%d, %d]", k, b.base, end, b.lo, b.hi)
		}
	}

	// Two bins a sign, their keys set to the ends of the range.
	two := NewQuantileSketch(0.001)
	for _, v := range []float64{-2, -1, 1, 2} {
		two.Add(v)
	}
	enc, err := two.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	key := func(b []byte, pair int, k int32) {
		binary.BigEndian.PutUint32(b[sketchHdrLen+pair*sketchPairLen:], uint32(k))
	}
	ends := append([]byte(nil), enc...)
	for pair := 0; pair < 4; pair += 2 {
		key(ends, pair, -372219)
		key(ends, pair+1, 354892)
	}
	if _, err := DecodeQuantileSketch(ends); err != nil {
		t.Fatalf("keys at the ends of the range rejected: %v", err)
	}
	for name, mut := range map[string]func(b []byte){
		"alpha 0.0005":       func(b []byte) { binary.BigEndian.PutUint64(b[4:], math.Float64bits(0.0005)) },
		"negative key below": func(b []byte) { key(b, 0, -372220) },
		"negative key above": func(b []byte) { key(b, 1, 354893) },
		"positive key below": func(b []byte) { key(b, 2, -372220) },
		"positive key above": func(b []byte) { key(b, 3, 354893) },
	} {
		b := append([]byte(nil), ends...)
		mut(b)
		if _, err := DecodeQuantileSketch(b); !errors.Is(err, ErrSketch) {
			t.Errorf("%s: got %v, want ErrSketch", name, err)
		}
	}
	for _, alpha := range []float64{0.0005, 0, 0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuantileSketch(%g) did not panic", alpha)
				}
			}()
			NewQuantileSketch(alpha)
		}()
	}
}

// TestSketchCodecRoundTrip: encode→decode→encode is the identity, on
// empty and populated sketches, and decode rejects corruption.
func TestSketchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, fill := range map[string]int{"empty": 0, "small": 3, "large": 5000} {
		s := NewQuantileSketch(0.001)
		for i := 0; i < fill; i++ {
			s.Add(rng.NormFloat64() * 1e5)
		}
		s.Add(math.NaN()) // rejected counter must round-trip too
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeQuantileSketch(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		enc2, err := dec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: round trip not identity", name)
		}
		if dec.Count() != s.Count() || dec.Rejected() != s.Rejected() {
			t.Fatalf("%s: decoded state differs", name)
		}
		if q, dq := s.Quantile(0.5), dec.Quantile(0.5); math.Float64bits(q) != math.Float64bits(dq) {
			t.Fatalf("%s: decoded median %g != %g", name, dq, q)
		}
	}

	s := NewQuantileSketch(0.01)
	s.Add(1)
	s.Add(2)
	enc, _ := s.MarshalBinary()
	for name, mut := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-3] },
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad count":   func(b []byte) []byte { b[19] ^= 0x01; return b }, // count field
		"extra bytes": func(b []byte) []byte { return append(b, 0) },
	} {
		if _, err := DecodeQuantileSketch(mut(append([]byte(nil), enc...))); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// sameState fails unless a and b encode to the same bytes: alpha,
// counts, min, max and every bin.
func sameState(t *testing.T, what string, a, b *QuantileSketch) {
	t.Helper()
	ea, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: AddLog state differs from Add(exp): count %d/%d rejected %d/%d min %.17g/%.17g max %.17g/%.17g",
			what, a.Count(), b.Count(), a.Rejected(), b.Rejected(), a.Min(), b.Min(), a.Max(), b.Max())
	}
}

// TestSketchAddLogMatchesAdd: a stream of 1e5 log-domain adds, lifetimes
// in seconds and values spread over most of exp's range, leaves the same
// bins, count, min and max as adding exp of each.
func TestSketchAddLogMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lg, ex := NewQuantileSketch(0.001), NewQuantileSketch(0.001)
	for i := 0; i < 100000; i++ {
		x := 15 + 2*rng.NormFloat64()
		if i%10 == 0 {
			x = -700 + 1400*rng.Float64()
		}
		lg.AddLog(x)
		ex.Add(math.Exp(x))
	}
	sameState(t, "1e5 adds", lg, ex)
}

// TestSketchAddLogOutsideExpRange: NaN, ±Inf, and x whose exp is
// subnormal, underflows to 0 or overflows are handled exactly as
// Add(math.Exp(x)) handles them — rejected, counted as zeros, or binned
// from the rounded value — on an empty sketch and between ordinary adds.
func TestSketchAddLogOutsideExpRange(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -745.2, -746, -800, -1e300,
		-740, -708.5, -708.396, -708, 709, 709.2, 709.44, 709.5, 709.78, 709.7827, 709.79, 710, 1e300}
	for _, x := range odd {
		lg, ex := NewQuantileSketch(0.01), NewQuantileSketch(0.01)
		lg.AddLog(x)
		ex.Add(math.Exp(x))
		sameState(t, fmt.Sprintf("x=%v alone", x), lg, ex)
		for _, y := range []float64{3, -2, 700, x, 1} {
			lg.AddLog(y)
			ex.Add(math.Exp(y))
		}
		sameState(t, fmt.Sprintf("x=%v among ordinary adds", x), lg, ex)
	}
	lg, ex := NewQuantileSketch(0.01), NewQuantileSketch(0.01)
	for _, x := range odd {
		lg.AddLog(x)
		ex.Add(math.Exp(x))
	}
	sameState(t, "all of them", lg, ex)
}

// checkLnBounds fails unless s's log-domain extremes are the tight
// bounds AddLog relies on: each within the lnEdge slack of the log of
// its exact extreme, so no x past it is missed and exp runs only for an
// x within rounding of a new extreme.
func checkLnBounds(t *testing.T, what string, s *QuantileSketch) {
	t.Helper()
	if l := math.Log(s.min); !(s.lnMin <= lnEdge(s.min, 1) && s.lnMin >= lnEdge(s.min, -1)) {
		t.Fatalf("%s: lnMin %.17g does not bracket ln min = %.17g", what, s.lnMin, l)
	}
	if l := math.Log(s.max); !(s.lnMax >= lnEdge(s.max, -1) && s.lnMax <= lnEdge(s.max, 1)) {
		t.Fatalf("%s: lnMax %.17g does not bracket ln max = %.17g", what, s.lnMax, l)
	}
}

// TestSketchAddLogAfterMergeAndDecode: log-domain adds after a Merge,
// after a decode and after a plain Add keep min and max exact, including
// x within a few ulps of the log of the current extreme, where the
// log-domain bounds set from a value (not from an AddLog of its own)
// must not skip a value that exp rounds past it.
func TestSketchAddLogAfterMergeAndDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// probe adds x near ln min and ln max to both sketches, ulp by ulp.
	probe := func(lg, ex *QuantileSketch) {
		for _, l := range []float64{math.Log(lg.Min()), math.Log(lg.Max())} {
			x := l
			for k := 0; k < 3; k++ {
				x = math.Nextafter(x, math.Inf(-1))
			}
			for k := 0; k < 7; k++ {
				lg.AddLog(x)
				ex.Add(math.Exp(x))
				x = math.Nextafter(x, math.Inf(1))
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		a, b := NewQuantileSketch(0.001), NewQuantileSketch(0.001)
		ref := NewQuantileSketch(0.001)
		for i := 0; i < 20; i++ {
			x, y := 10+rng.NormFloat64(), 10+3*rng.NormFloat64()
			a.AddLog(x)
			b.AddLog(y)
			ref.Add(math.Exp(x))
			ref.Add(math.Exp(y))
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		checkLnBounds(t, "after Merge", a)
		for i := 0; i < 20; i++ {
			x := 10 + 4*rng.NormFloat64()
			a.AddLog(x)
			ref.Add(math.Exp(x))
		}
		probe(a, ref)
		sameState(t, fmt.Sprintf("trial %d after Merge", trial), a, ref)

		enc, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeQuantileSketch(enc)
		if err != nil {
			t.Fatal(err)
		}
		checkLnBounds(t, "after decode", dec)
		probe(dec, ref)
		for i := 0; i < 20; i++ {
			x := 10 + 5*rng.NormFloat64()
			dec.AddLog(x)
			ref.Add(math.Exp(x))
		}
		sameState(t, fmt.Sprintf("trial %d after decode", trial), dec, ref)

		v := dec.Min() * (1 - rng.Float64()*1e-3)
		dec.Add(v)
		ref.Add(v)
		checkLnBounds(t, "after Add", dec)
		probe(dec, ref)
		sameState(t, fmt.Sprintf("trial %d after Add", trial), dec, ref)
	}
}

// FuzzSketchDecode: the journaled sketch-state decoder must never
// panic, and every blob it accepts must re-encode canonically (decode∘
// encode is the identity on accepted input — the property crash-resume
// byte-identity rests on).
func FuzzSketchDecode(f *testing.F) {
	seed := func(build func(s *QuantileSketch)) {
		s := NewQuantileSketch(0.001)
		build(s)
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	seed(func(s *QuantileSketch) {})
	seed(func(s *QuantileSketch) { s.Add(1); s.Add(-2); s.Add(0); s.Add(math.NaN()) })
	seed(func(s *QuantileSketch) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			s.Add(math.Exp(4 * rng.NormFloat64()))
		}
	})
	// Wide span at α = 0.01, keys near ±17k on both signs: windows of
	// 35k counters (276 KB), so mutated inputs stay far from the 5.8 MB
	// a window of every key reachable at α = 0.001 takes.
	wide := NewQuantileSketch(0.01)
	for _, v := range []float64{1e-150, 1e150, 1, -1e-150, -1e150} {
		wide.Add(v)
	}
	enc, err := wide.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(sketchMagic))
	f.Add(bytes.Repeat([]byte{0xff}, 80))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeQuantileSketch(data)
		if err != nil {
			return
		}
		for _, b := range []*binStore{&s.neg, &s.pos} {
			if len(b.counts) > 0 && (b.base < b.lo || int(b.base)+len(b.counts)-1 > int(b.hi)) {
				t.Fatalf("window [%d, %d] outside the reachable keys [%d, %d]", b.base, int(b.base)+len(b.counts)-1, b.lo, b.hi)
			}
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted blob failed to re-encode: %v", err)
		}
		s2, err := DecodeQuantileSketch(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		enc2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not canonical")
		}
		_ = s.Quantile(0.5) // must not panic on any accepted state
	})
}
