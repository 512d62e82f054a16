package lifetime

import (
	"math/rand"
	"testing"
)

// benchParams is the 3-class census the kernel benchmark and the golden
// reports sample: 200k chip samples at correlation rho.
func benchParams(rho float64, seed int64) Params {
	return Params{
		Segments: []SegmentSpec{
			{Count: 200000, TempC: 102, JMA: 0.45},
			{Count: 5000, TempC: 132, JMA: 1.15},
			{Count: 300, TempC: 157, JMA: 1.6},
		},
		Samples: 200000,
		Seed:    seed,
		Rho:     rho,
	}
}

// BenchmarkSampleRange times the synchronous route's kernel at its
// default cap: 200k chip samples of a 3-class census at ρ = 0.3 drawn
// into one sketch. Its hottest class holds the chip minimum in every
// sample, so the draw evaluates one class and skips two.
func BenchmarkSampleRange(b *testing.B) {
	benchSampleRange(b, benchParams(0.3, 17))
}

// BenchmarkSampleRangeOneClass is the kernel with nothing to skip: the
// census is the hottest class alone.
func BenchmarkSampleRangeOneClass(b *testing.B) {
	p := benchParams(0.3, 17)
	p.Segments = p.Segments[2:]
	benchSampleRange(b, p)
}

// BenchmarkSampleRangeEqualClasses is the kernel's worst census: three
// identical classes, each as likely as the others to hold the minimum,
// so most samples evaluate more than one.
func BenchmarkSampleRangeEqualClasses(b *testing.B) {
	p := benchParams(0.3, 17)
	p.Segments = []SegmentSpec{p.Segments[2], p.Segments[2], p.Segments[2]}
	benchSampleRange(b, p)
}

// BenchmarkSampleRangeCensus256 and BenchmarkSampleRangeCensus4096 time
// the kernel on wide censuses, where every sample draws a uniform and
// runs a skip test per class and a block holds 8 samples and 1: 20k and
// 2k samples of a random census (randomCensus). They guard the bound
// on a block's uniforms.
func BenchmarkSampleRangeCensus256(b *testing.B) {
	benchSampleRange(b, randomCensus(256, 20000))
}

func BenchmarkSampleRangeCensus4096(b *testing.B) {
	benchSampleRange(b, randomCensus(MaxClasses, 2000))
}

// randomCensus draws a census of the given size from a fixed seed: each
// class at 90–160 °C and 0.2–1.6 MA/cm² with 1–300 segments, ρ = 0.3.
func randomCensus(classes, samples int) Params {
	rng := rand.New(rand.NewSource(int64(classes)))
	p := Params{Samples: samples, Seed: 17, Rho: 0.3}
	for i := 0; i < classes; i++ {
		p.Segments = append(p.Segments, SegmentSpec{
			Count: 1 + rng.Intn(300),
			TempC: 90 + 70*rng.Float64(),
			JMA:   0.2 + 1.4*rng.Float64(),
		})
	}
	return p
}

func benchSampleRange(b *testing.B, p Params) {
	m, err := Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SampleRange(NewSketch(), 0, m.Samples); err != nil {
			b.Fatal(err)
		}
	}
}
