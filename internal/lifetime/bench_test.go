package lifetime

import "testing"

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
