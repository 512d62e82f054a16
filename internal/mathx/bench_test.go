package mathx

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkSpMVParallel measures CSR.MulVec on a 2-D Laplacian large
// enough to cross the parallel threshold, with the serial (workers=1)
// baseline run in the same invocation for an honest side-by-side.
func BenchmarkSpMVParallel(b *testing.B) {
	a := laplacian2D(400, 400)
	x := randVec(rand.New(rand.NewSource(11)), a.N)
	y := make([]float64, a.N)

	b.Run("serial", func(b *testing.B) {
		setWorkersForTest(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.MulVec(x, y)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		setWorkersForTest(b, 0) // GOMAXPROCS
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.MulVec(x, y)
		}
	})
}

// BenchmarkDotParallel compares the chunked reduction serial vs parallel.
func BenchmarkDotParallel(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, n)
	y := randVec(rng, n)

	b.Run("serial", func(b *testing.B) {
		setWorkersForTest(b, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Dot(x, y)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		setWorkersForTest(b, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Dot(x, y)
		}
	})
}

// BenchmarkSolveCGPrecond compares the ladder's two CG preconditioners
// on the same system — the iteration counts are why IC(0) is the
// primary CG rung.
func BenchmarkSolveCGPrecond(b *testing.B) {
	a := laplacian2D(150, 100)
	rhs := randVec(rand.New(rand.NewSource(7)), a.N)
	for _, pc := range ladderPreconds(b, a) {
		b.Run(pc.name, func(b *testing.B) {
			x := make([]float64, a.N)
			var iters int
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = 0
				}
				res := solveCG(a, rhs, x, 1e-8, 10*a.N, pc.m, &CGScratch{})
				if !res.Converged {
					b.Fatal("CG did not converge")
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkBandCholesky measures the two banded kernels on the 48×32
// grid a medium chip check factors twice and sweeps ~35 times: the
// factorization and one solve, both in the factor's short-side order.
func BenchmarkBandCholesky(b *testing.B) {
	a := laplacian2D(48, 32)
	b.Run("factor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewBandCholesky(a, a.N); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve", func(b *testing.B) {
		c, err := NewBandCholesky(a, a.N)
		if err != nil {
			b.Fatal(err)
		}
		rhs := randVec(rand.New(rand.NewSource(8)), a.N)
		x := make([]float64, a.N)
		tmp := make([]float64, a.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Solve(rhs, x, tmp)
		}
	})
}

// BenchmarkBrentCtxShared runs root searches on every P under one
// cancellable context, as the pool workers checking one netcheck design
// share their request's: BrentCtx's per-iteration cancellation poll
// must take no lock that they would contend on.
func BenchmarkBrentCtxShared(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := func(x float64) float64 { return x*x*x - x - 2 }
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := BrentCtx(ctx, f, 1, 2, 1e-13); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
