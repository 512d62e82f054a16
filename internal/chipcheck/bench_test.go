package chipcheck

import (
	"context"
	"testing"
)

// BenchmarkChipcheckSolve measures the coupled IR-drop ↔ thermal-map
// fixed point on the medium fixture (2992 branches, converges in a few
// passes): the cost of one full-chip field, its operator included.
func BenchmarkChipcheckSolve(b *testing.B) {
	c, err := Compile(mediumFixture())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Solve(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipcheckSolveShared is BenchmarkChipcheckSolve on one
// Operator built before the timer: the fixed point alone, as the
// /v1/chipcheck route pays it for a geometry it has seen.
func BenchmarkChipcheckSolveShared(b *testing.B) {
	c, err := Compile(mediumFixture())
	if err != nil {
		b.Fatal(err)
	}
	op, err := c.NewOperator()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SolveWith(context.Background(), op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipcheckVerdicts measures tile throughput of the
// single-pass EM check: segments/second over an already-solved field —
// the per-chunk cost a chipcheck job pays after the shared field is up.
func BenchmarkChipcheckVerdicts(b *testing.B) {
	c, err := Compile(mediumFixture())
	if err != nil {
		b.Fatal(err)
	}
	f, err := c.Solve(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	nb := c.NumBranches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Verdicts(f, 0, nb); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nb)*float64(b.N)/b.Elapsed().Seconds(), "segments/s")
}
