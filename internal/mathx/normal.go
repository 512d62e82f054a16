package mathx

import "math"

// NormCDF returns the standard normal cumulative distribution Φ(x). It is
// evaluated through erfc, so the lower tail keeps full relative accuracy
// down to underflow (Φ(−10) ≈ 7.62e-24) instead of cancelling to 0 as
// 0.5·(1 + erf) does below x ≈ −8.3.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// InvNormCDF returns Φ⁻¹(p) for p ∈ (0, 1) by Wichura's AS241 (PPND16,
// Applied Statistics 37(3), 1988): a rational function of p in the
// centre (|p − 0.5| ≤ 0.425) and of r = √(−ln min(p, 1−p)) in the tails
// (one set for r ≤ 5, one beyond). It needs no erf or exp, and its
// relative error is ~1e-16 across the domain, the deep lower tail down
// to p = 1e-300 included. The upper tail sees its mass 1 − p exactly,
// but a float64 p cannot lie closer to 1 than 2⁻⁵³, so results there
// stop near 8.2. It returns ±Inf at the endpoints and NaN outside
// [0, 1].
func InvNormCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - q*q
		return q * (((((((2.5090809287301226727e+3*r+3.3430575583588128105e+4)*r+
			6.7265770927008700853e+4)*r+4.5921953931549871457e+4)*r+
			1.3731693765509461125e+4)*r+1.9715909503065514427e+3)*r+
			1.3314166789178437745e+2)*r + 3.3871328727963666080e+0) /
			(((((((5.2264952788528545610e+3*r+2.8729085735721942674e+4)*r+
				3.9307895800092710610e+4)*r+2.1213794301586595867e+4)*r+
				5.3941960214247511077e+3)*r+6.8718700749205790830e+2)*r+
				4.2313330701600911252e+1)*r + 1)
	}
	// 1 − p is exact here (Sterbenz), so both tails see their own mass.
	r := p
	if q > 0 {
		r = 1 - p
	}
	x := normTail(math.Sqrt(-math.Log(r)))
	if q < 0 {
		return -x
	}
	return x
}

// lnNormTailP is ln 0.075, the edge of AS241's lower tail piece.
var lnNormTailP = math.Log(0.075)

// InvNormCDFLog returns Φ⁻¹(p) given lnp = ln p, for callers that hold
// the level in log space (the weakest-of-n lifetime draw does). Below
// ln 0.075 it evaluates AS241's tail piece at r = √(−lnp) directly, so
// p is never formed; above, it is InvNormCDF(exp(lnp)). Where exp(lnp)
// is a normal float64 it agrees with InvNormCDF(math.Exp(lnp)) to 2
// ulps (the two round r differently). It returns −Inf at lnp = −Inf,
// +Inf at 0 and NaN above 0.
func InvNormCDFLog(lnp float64) float64 {
	switch {
	case lnp == math.Inf(-1):
		return math.Inf(-1)
	case lnp < lnNormTailP:
		return -normTail(math.Sqrt(-lnp))
	}
	return InvNormCDF(math.Exp(lnp))
}

// normTail is AS241's tail piece: |Φ⁻¹| of a tail mass m < 0.075, given
// r = √(−ln m) (one rational for r ≤ 5, one beyond).
func normTail(r float64) float64 {
	if r <= 5 {
		r -= 1.6
		return (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258e+0)*r+
			3.64784832476320460504e+0)*r+5.76949722146069140550e+0)*r+
			4.63033784615654529590e+0)*r + 1.42343711074968357734e+0) /
			(((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
				1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
				6.89767334985100004550e-1)*r+1.67638483018380384940e+0)*r+
				2.05319162663775882187e+0)*r + 1)
	}
	r -= 5
	return (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
		1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
		2.96560571828504891230e-1)*r+1.78482653991729133580e+0)*r+
		5.46378491116411436990e+0)*r + 6.65790464350110377720e+0) /
		(((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
			1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
			1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
			5.99832206555887937690e-1)*r + 1)
}
