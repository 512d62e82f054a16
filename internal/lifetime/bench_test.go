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
// into one sketch.
func BenchmarkSampleRange(b *testing.B) {
	m, err := Compile(benchParams(0.3, 17))
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
