package lifetime

import (
	"math"
	"testing"

	"dsmtherm/internal/em"
)

// oracleNodes is the trapezoid node count on z ∈ [−9, 9]. At ρ = 0.9 the
// conditional survival of a 200k-segment class drops from 1 to 0 over a
// few tenths of z, so the rule needs a fine step there: on the test
// census 161 nodes move F by up to 2e-6 when doubled, 321 by 2e-10 and
// 641 by 2e-15. TestLifetimeQuadratureOracle checks the last bound.
const oracleNodes = 641

// oracleCDF is P(T_chip ≤ t) for the one-factor weakest-link model,
// evaluated without sampling. Given the chip-wide factor z the classes
// are independent, so
//
//	P(T_chip > t) = ∫ φ(z) · Π_c S_c(t | z)^n_c dz,
//	S_c(t | z) = 1 − Φ((ln(t/median_c)/σ_c − √ρ·z) / √(1−ρ)),
//
// integrated by the trapezoid rule on [−9, 9] (the mass outside is
// 2·Φ(−9) ≈ 2e-19).
func oracleCDF(chip *em.ChipModel, t float64, nodes int) float64 {
	sc, si := math.Sqrt(chip.Rho), math.Sqrt(1-chip.Rho)
	h := 18 / float64(nodes-1)
	surv := 0.0
	for k := 0; k < nodes; k++ {
		z := -9 + float64(k)*h
		logS := 0.0
		for _, c := range chip.Classes {
			w := (math.Log(t/c.Median)/c.Sigma - sc*z) / si
			// ln(1 − Φ(w)) without cancellation on either side.
			if w < 0 {
				logS += float64(c.Count) * math.Log1p(-0.5*math.Erfc(-w/math.Sqrt2))
			} else {
				logS += float64(c.Count) * math.Log(0.5*math.Erfc(w/math.Sqrt2))
			}
		}
		wt := h
		if k == 0 || k == nodes-1 {
			wt = h / 2
		}
		surv += wt * math.Exp(-z*z/2+logS) / math.Sqrt(2*math.Pi)
	}
	return 1 - surv
}

// oracleQuantile inverts oracleCDF by bisection in ln t, starting from a
// bracket around guess that it widens until it holds p.
func oracleQuantile(chip *em.ChipModel, p, guess float64, nodes int) float64 {
	lo, hi := math.Log(guess)-1, math.Log(guess)+1
	for oracleCDF(chip, math.Exp(lo), nodes) > p {
		lo -= 2
	}
	for oracleCDF(chip, math.Exp(hi), nodes) < p {
		hi += 2
	}
	for i := 0; i < 100 && hi-lo > 1e-14; i++ {
		mid := 0.5 * (lo + hi)
		if oracleCDF(chip, math.Exp(mid), nodes) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp(0.5 * (lo + hi))
}

// TestLifetimeQuadratureOracle checks the sampled quantiles against the
// model's exact distribution. The reported q̂ of level p must satisfy
//
//	|F(q̂) − p| ≤ 5·√(p(1−p)/N) + F(q̂(1+α)) − F(q̂(1−α)),
//
// five binomial standard errors of an N-sample empirical quantile, plus
// the mass the sketch's relative accuracy α can move it across.
func TestLifetimeQuadratureOracle(t *testing.T) {
	for _, rho := range []float64{0, 0.3, 0.9} {
		p := testParams()
		p.Samples = 200000
		p.Rho = rho
		m, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		sk := NewSketch()
		if err := m.SampleRange(sk, 0, m.Samples); err != nil {
			t.Fatal(err)
		}
		rep, err := m.BuildReport(sk)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(m.Samples)
		for _, q := range rep.Quantiles {
			qhat := q.TTFYears * yearSeconds
			f := oracleCDF(&m.Chip, qhat, oracleNodes)
			band := oracleCDF(&m.Chip, qhat*(1+SketchAlpha), oracleNodes) -
				oracleCDF(&m.Chip, qhat*(1-SketchAlpha), oracleNodes)
			tol := 5*math.Sqrt(q.P*(1-q.P)/n) + band
			exact := oracleQuantile(&m.Chip, q.P, qhat, oracleNodes)
			t.Logf("rho=%g p=%g: F(q̂)=%.6g (tol %.2g), q̂/q−1 = %+.2e", rho, q.P, f, tol, qhat/exact-1)
			if math.Abs(f-q.P) > tol {
				t.Errorf("rho=%g p=%g: F(q̂) = %g, |F−p| = %.3g > %.3g", rho, q.P, f, math.Abs(f-q.P), tol)
			}
			if rho == 0.9 {
				for _, x := range []float64{qhat, exact} {
					if d := math.Abs(oracleCDF(&m.Chip, x, 2*oracleNodes-1) - oracleCDF(&m.Chip, x, oracleNodes)); d >= 1e-9 {
						t.Errorf("rho=0.9 p=%g: doubling the nodes moves F by %.2g, want < 1e-9", q.P, d)
					}
				}
			}
		}
	}
}
