package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Coord is a coordinate-format (COO) sparse-matrix builder. Finite
// difference assembly appends (i, j, v) triplets, possibly with duplicates,
// and ToCSR merges them into compressed sparse row form.
type Coord struct {
	N      int
	is, js []int
	vals   []float64
}

// NewCoord returns a builder for an n×n sparse matrix.
func NewCoord(n int) *Coord { return &Coord{N: n} }

// Add appends the triplet (i, j, v). Duplicate coordinates are summed by
// ToCSR, which matches the additive stamping used by discretizations.
func (c *Coord) Add(i, j int, v float64) {
	if i < 0 || i >= c.N || j < 0 || j >= c.N {
		panic(fmt.Sprintf("mathx: Coord.Add index (%d,%d) out of range n=%d", i, j, c.N))
	}
	c.is = append(c.is, i)
	c.js = append(c.js, j)
	c.vals = append(c.vals, v)
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// Bytes returns the memory the matrix's arrays hold.
func (a *CSR) Bytes() int { return 8 * (len(a.RowPtr) + len(a.ColIdx) + len(a.Val)) }

// ToCSR converts the accumulated triplets to CSR, summing duplicates.
func (c *Coord) ToCSR() *CSR {
	order := make([]int, len(c.is))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if c.is[ia] != c.is[ib] {
			return c.is[ia] < c.is[ib]
		}
		return c.js[ia] < c.js[ib]
	})
	m := &CSR{N: c.N, RowPtr: make([]int, c.N+1)}
	prevI, prevJ := -1, -1
	for _, k := range order {
		i, j, v := c.is[k], c.js[k], c.vals[k]
		if i == prevI && j == prevJ {
			m.Val[len(m.Val)-1] += v
			continue
		}
		m.ColIdx = append(m.ColIdx, j)
		m.Val = append(m.Val, v)
		m.RowPtr[i+1]++
		prevI, prevJ = i, j
	}
	for i := 0; i < c.N; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// Diag extracts the diagonal of the matrix; zero diagonal entries are
// returned as zero.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				d[i] = m.Val[k]
			}
		}
	}
	return d
}

// Slot returns the index into Val of entry (i, j), or -1 if the
// sparsity pattern has no such entry. ToCSR emits each row with
// ascending columns, so this is a binary search within row i. It lets
// value-only refreshes (re-stamping temperature-dependent conductances
// onto a fixed topology) bypass COO assembly entirely: resolve each
// stamp's slot once, then rewrite Val in place on every pass.
func (m *CSR) Slot(i, j int) int {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ColIdx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.RowPtr[i+1] && m.ColIdx[lo] == j {
		return lo
	}
	return -1
}

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖b − A·x‖₂ / ‖b‖₂
	Converged  bool
	// Diverged marks a solve the divergence detector cut short: the
	// residual went NaN/Inf, exploded past cgDivergeLimit, or the
	// iteration broke down (p·Ap ≤ 0 on a supposedly SPD system). The
	// solution vector is garbage; callers fall down their ladder or
	// surface ErrNumeric.
	Diverged bool
	// Stagnated marks a solve cut short by the stagnation detector: no
	// new best residual for cgStagnationWindow iterations. Unlike plain
	// non-convergence at MaxIter, stagnation means more iterations
	// cannot help.
	Stagnated bool
}

// SolveCG solves A·x = b for a symmetric positive-definite CSR matrix
// using Jacobi-preconditioned conjugate gradients. x is used as the
// initial guess and overwritten with the solution. rtol is the relative
// residual target; maxIter caps the iteration count (≤ 0 means 10·N).
// An all-zero b short-circuits to the exact solution x = 0 (Converged,
// zero iterations) regardless of the initial guess. Grid solves that
// need the full fallback ladder go through SPD instead.
func SolveCG(a *CSR, b, x []float64, rtol float64, maxIter int) CGResult {
	return solveCG(a, b, x, rtol, maxIter, newJacobi(a), &CGScratch{})
}

// CGScratch holds the work vectors of a CG solve (and of a permuted
// banded solve) so repeated solves of same-size systems (the
// electrothermal fixed point solves the same grid dozens of times)
// produce no per-call garbage. The zero value is ready to use; vectors
// are (re)sized on demand.
type CGScratch struct {
	r, z, p, ap, t []float64
}

func (s *CGScratch) resize(n int) {
	grow(&s.r, n)
	grow(&s.z, n)
	grow(&s.p, n)
	grow(&s.ap, n)
	grow(&s.t, n)
}

// grow sets *v to length n, allocating only when its capacity is short,
// and returns it.
func grow(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// solveCG runs CG preconditioned by m with caller-owned work vectors.
// The scratch must not be shared between concurrent solves.
func solveCG(a *CSR, b, x []float64, rtol float64, maxIter int, m preconditioner, scratch *CGScratch) CGResult {
	n := a.N
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		// A is SPD hence nonsingular: b = 0 ⇒ x = 0 exactly.
		for i := range x {
			x[i] = 0
		}
		return CGResult{Iterations: 0, Residual: 0, Converged: true}
	}
	scratch.resize(n)
	r, z, p, ap := scratch.r, scratch.z, scratch.p, scratch.ap

	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	m.apply(r, z, scratch.t)
	copy(p, z)
	rz := Dot(r, z)
	res := CGResult{}
	bestRn, bestK := math.Inf(1), 0
	for k := 0; k < maxIter; k++ {
		rn := Norm2(r) / bnorm
		res.Iterations, res.Residual = k, rn
		if rn < rtol {
			res.Converged = true
			return res
		}
		// Divergence detector: a NaN/Inf residual (NaN input, broken
		// preconditioner) or one exploding past cgDivergeLimit cannot
		// recover — bail out immediately rather than spinning to maxIter
		// on garbage.
		if math.IsNaN(rn) || math.IsInf(rn, 0) || rn > cgDivergeLimit {
			res.Diverged = true
			cgDivergences.Add(1)
			return res
		}
		// Stagnation detector: no new best residual in a long window
		// means the Krylov process has broken down (effectively singular
		// or non-SPD A) and further iterations are wasted.
		if rn < bestRn {
			bestRn, bestK = rn, k
		} else if k-bestK >= cgStagnationWindow {
			res.Stagnated = true
			cgStagnations.Add(1)
			return res
		}
		a.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap == 0 || math.IsNaN(pap) {
			// Breakdown: a zero or NaN curvature on a live residual. The
			// residual check above already returned for converged solves,
			// so this is always a genuine failure.
			res.Diverged = true
			cgDivergences.Add(1)
			return res
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		m.apply(r, z, scratch.t)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	res.Residual = Norm2(r) / bnorm
	res.Converged = res.Residual < rtol
	return res
}
