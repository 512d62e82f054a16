package rules

import (
	"math"
	"math/rand"
	"testing"

	"dsmtherm/internal/ntrs"
)

// legacyPerturb deep-copies the technology with lognormal variations
// applied — the per-sample allocation pattern the mcKernel replaced,
// kept as the naive reference TestMCKernelMatchesNaive compares against.
func legacyPerturb(tech *ntrs.Technology, v Variation, rng *rand.Rand) *ntrs.Technology {
	p := tech.WithGapFill(tech.Gap) // deep copy
	ln := func(sigma float64) float64 {
		if sigma == 0 {
			return 1
		}
		return math.Exp(sigma * rng.NormFloat64())
	}
	for i := range p.Layers {
		l := &p.Layers[i]
		l.Width *= ln(v.Width)
		if l.Width > 0.98*l.Pitch {
			l.Width = 0.98 * l.Pitch
		}
		l.Thick *= ln(v.Thick)
		l.ILD *= ln(v.ILD)
	}
	p.Gap.ThermalCond *= ln(v.Kd)
	p.ILD.ThermalCond *= ln(v.Kd)
	return p
}

// BenchmarkMonteCarloParallel runs the same 150-sample guard-band study
// through the batch-kernel engine at 1 worker ("serial") and at 8
// workers ("parallel") in one invocation, so the speedup BENCH_*.json
// records is the fan-out of one kernel, not an algorithm change.
func BenchmarkMonteCarloParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			v := defaultVariation()
			v.Workers = bc.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MonteCarlo(ntrs.N250(), Spec{}, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
