package fdm

import "testing"

// BenchmarkFDMSolveBatch pits SolveBatch (the RHS after the first
// solved concurrently) against one Solve call per powers map on the
// same solver of the same 3×3 array, so both sides take the same rung
// of the ladder and the ratio measures the fan-out alone. Both run in
// the same invocation so BENCH_*.json records the pair side by side.
func BenchmarkFDMSolveBatch(b *testing.B) {
	ar := batchTestArray(b)
	res := DefaultResolution(ar)

	b.Run("serial", func(b *testing.B) {
		s, err := NewSolver(ar, res)
		if err != nil {
			b.Fatal(err)
		}
		batch := batchTestPowers(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, powers := range batch {
				if _, err := s.Solve(powers); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		s, err := NewSolver(ar, res)
		if err != nil {
			b.Fatal(err)
		}
		batch := batchTestPowers(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SolveBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFDMCouplingFactor measures the Table 7 kernel end to end —
// it now rides the batched path internally.
func BenchmarkFDMCouplingFactor(b *testing.B) {
	ar := batchTestArray(b)
	observed := LineRef{Level: 2, Index: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CouplingFactor(ar, observed, 0); err != nil {
			b.Fatal(err)
		}
	}
}
