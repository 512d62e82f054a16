package mathx

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBand reports that a banded Cholesky factorization is unavailable for
// a matrix: its band is wider than the caller's budget, or a pivot lost
// positive definiteness.
var ErrBand = errors.New("mathx: banded Cholesky unavailable")

// CholEntryBudget caps a banded factor at 16M floats (128 MB). Grid
// solvers pass CholEntryBudget/n as the band budget of an n-unknown
// system, so fine meshes fall back to IC(0) CG instead of exhausting
// memory.
const CholEntryBudget = 1 << 24

// BandCholesky is a dense-band Cholesky factorization P·A·Pᵀ = L·Lᵀ of a
// symmetric positive-definite CSR matrix. The elimination order P is
// chosen by the factorization: a reverse Cuthill–McKee order when it
// gives a narrower band than the natural order, which numbers a
// row-major grid along its shorter side (band 33 instead of 48 on a
// 48×32 grid). Callers keep their own layout; Solve permutes in and out.
// The trade is decisive for multi-RHS work: the O(n·bw²) factorization
// is paid once, after which every right-hand side costs two O(n·bw)
// triangular sweeps instead of hundreds of CG iterations. Solve is
// deterministic and safe to call concurrently with distinct scratch (the
// factor is read-only after construction).
type BandCholesky struct {
	n, bw int
	// perm[k] is the original index of the k-th unknown in elimination
	// order; nil means the natural order.
	perm []int
	// first[i] is the leftmost column of row i of P·A·Pᵀ. Cholesky fill
	// stays inside this envelope, so L[i][j] = 0 for j < first[i] and the
	// loops skip those slots: a Cuthill–McKee order's short levels at
	// the grid corners leave much of the band empty.
	first []int
	// l stores L row-major with a fixed window per row:
	// l[i*(bw+1) + (j-i+bw)] = L[i][j] for i−bw ≤ j ≤ i. Slots left of
	// column 0 in the first bw rows are never touched (they stay zero).
	l []float64
}

// NewBandCholesky factors a in the narrower of its natural and reverse
// Cuthill–McKee orders. It fails with ErrBand if that bandwidth exceeds
// maxBand (the caller's memory/cost budget — storage is n·(bw+1)
// floats) or if a pivot is non-positive (matrix not SPD).
func NewBandCholesky(a *CSR, maxBand int) (*BandCholesky, error) {
	bw := bandwidth(a, nil)
	var perm, iperm []int
	if bw > 1 {
		p := rcmOrder(a)
		ip := inversePerm(p)
		if pbw := bandwidth(a, ip); pbw < bw {
			perm, iperm, bw = p, ip, pbw
		}
	}
	if bw > maxBand {
		return nil, fmt.Errorf("%w: bandwidth %d exceeds budget %d", ErrBand, bw, maxBand)
	}
	return factorBand(a, bw, perm, iperm)
}

// refactor factors a's current values (same sparsity pattern) into a
// new factor with c's order and band; c itself is left untouched for
// solves still reading it.
func (c *BandCholesky) refactor(a *CSR) (*BandCholesky, error) {
	return factorBand(a, c.bw, c.perm, inversePerm(c.perm))
}

// factorBand scatters P·A·Pᵀ into band storage of half-width bw and
// factors it in place, right-looking: once column k of L is final, it is
// subtracted from the trailing window in contiguous row runs. Each entry
// receives the same subtractions in the same (ascending k) order as a
// row-by-row dot-product factorization, with no dependency chain
// between them.
func factorBand(a *CSR, bw int, perm, iperm []int) (*BandCholesky, error) {
	n := a.N
	stride := bw + 1
	l := make([]float64, n*stride)
	first := make([]int, n)
	for i := range first {
		li := l[i*stride : (i+1)*stride]
		src := i
		if perm != nil {
			src = perm[i]
		}
		first[i] = i
		for p := a.RowPtr[src]; p < a.RowPtr[src+1]; p++ {
			j := a.ColIdx[p]
			if iperm != nil {
				j = iperm[j]
			}
			if j <= i {
				li[j-i+bw] = a.Val[p]
				first[i] = min(first[i], j)
			}
		}
	}
	col := make([]float64, bw) // col[t] = L[k+1+t][k]
	for k := 0; k < n; k++ {
		d := l[k*stride+bw]
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: non-positive pivot at row %d", ErrBand, k)
		}
		d = math.Sqrt(d)
		l[k*stride+bw] = d
		c := col[:min(bw, n-1-k)]
		for t := range c {
			i := k + 1 + t
			if first[i] > k {
				c[t] = 0
				continue
			}
			v := l[i*stride+k-i+bw] / d
			l[i*stride+k-i+bw] = v
			c[t] = v
		}
		// A[i][k+1..i] −= L[i][k]·L[k+1..i][k] for each row i below k;
		// a zero L[i][k] (outside row i's envelope) would subtract
		// zeros.
		for t, lik := range c {
			if lik != 0 {
				i := k + 1 + t
				bandAxpy(lik, c, l[i*stride+k+1-i+bw:(i+1)*stride])
			}
		}
	}
	return &BandCholesky{n: n, bw: bw, perm: perm, first: first, l: l}, nil
}

// Bytes returns the memory the factor holds.
func (c *BandCholesky) Bytes() int { return 8 * (len(c.l) + len(c.first) + len(c.perm)) }

// Bandwidth returns the factored (half-)bandwidth, in elimination order.
func (c *BandCholesky) Bandwidth() int { return c.bw }

// Solve writes the solution of A·x = b into x; b and x may alias.
// len(b) and len(x) must equal the matrix dimension. A factor in a
// permuted order gathers b into tmp, sweeps there and scatters into x,
// so tmp (length ≥ n, aliasing neither b nor x) keeps the solve
// allocation-free; nil allocates it. A natural-order factor sweeps in
// place in x and ignores tmp.
func (c *BandCholesky) Solve(b, x, tmp []float64) {
	if c.perm == nil {
		copy(x, b)
		c.sweep(x)
		return
	}
	if len(tmp) < c.n {
		tmp = make([]float64, c.n)
	}
	t := tmp[:c.n]
	for k, p := range c.perm {
		t[k] = b[p]
	}
	c.sweep(t)
	for k, p := range c.perm {
		x[p] = t[k]
	}
}

// apply makes a factor of an earlier matrix a CG preconditioner: the
// stale-factor rung of SPD.
func (c *BandCholesky) apply(r, z, tmp []float64) { c.Solve(r, z, tmp) }

// sweep overwrites x (in elimination order) with (L·Lᵀ)⁻¹·x: a forward
// sweep over the rows of L, then a backward sweep that subtracts each
// solved unknown from the rest of its row, so both read L contiguously.
func (c *BandCholesky) sweep(x []float64) {
	n, bw := c.n, c.bw
	stride := bw + 1
	x = x[:n]
	// Forward: L·y = b, y overwriting x.
	for i := range x {
		lo := c.first[i]
		row := c.l[i*stride+lo-i+bw : (i+1)*stride] // L[i][lo..i]
		xs := x[lo:i]
		row = row[:len(xs)+1]
		x[i] = (x[i] - bandDot(row[:len(xs)], xs)) / row[len(xs)]
	}
	// Backward: Lᵀ·x = y, descending; once x[i] is final it is removed
	// from the unknowns of its row.
	for i := n - 1; i >= 0; i-- {
		lo := c.first[i]
		row := c.l[i*stride+lo-i+bw : (i+1)*stride]
		xs := x[lo:i]
		row = row[:len(xs)+1]
		xi := x[i] / row[len(xs)]
		x[i] = xi
		bandAxpy(xi, row, xs)
	}
}

// bandDot returns Σ a[k]·b[k] over len(a) ≤ len(b) in four interleaved
// partial sums: one accumulator would serialise the band loops on the
// floating-point add latency. The order is fixed, so results stay
// deterministic.
func bandDot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for k, v := range a {
		s0 += v * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// bandAxpy subtracts alpha·x from y over len(y) ≤ len(x), four entries
// per step.
func bandAxpy(alpha float64, x, y []float64) {
	for len(y) >= 4 && len(x) >= 4 {
		y[0] -= alpha * x[0]
		y[1] -= alpha * x[1]
		y[2] -= alpha * x[2]
		y[3] -= alpha * x[3]
		x, y = x[4:], y[4:]
	}
	for k := range y {
		y[k] -= alpha * x[k]
	}
}

// bandwidth returns max |pos(i) − pos(j)| over a's nonzeros, where pos
// is iperm (nil: the natural order).
func bandwidth(a *CSR, iperm []int) int {
	bw := 0
	for i := 0; i < a.N; i++ {
		pi := i
		if iperm != nil {
			pi = iperm[i]
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			pj := a.ColIdx[p]
			if iperm != nil {
				pj = iperm[pj]
			}
			if d := pi - pj; d > bw {
				bw = d
			}
		}
	}
	return bw
}

// inversePerm returns the position of each index in perm (nil for the
// natural order).
func inversePerm(perm []int) []int {
	if perm == nil {
		return nil
	}
	inv := make([]int, len(perm))
	for k, p := range perm {
		inv[p] = k
	}
	return inv
}

// rcmOrder returns a reverse Cuthill–McKee order of a's adjacency graph:
// each connected component is numbered breadth-first from a
// pseudo-peripheral node, neighbours by ascending degree (ties by
// index, so the order is deterministic), and the whole numbering is
// reversed. On a grid the levels are anti-diagonals no longer than the
// shorter side, which bounds the band by it.
func rcmOrder(a *CSR) []int {
	n := a.N
	deg := make([]int, n)
	for i := range deg {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p] != i {
				deg[i]++
			}
		}
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	queue := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if placed[root] {
			continue
		}
		start := peripheralNode(a, deg, depth, root, queue)
		head := len(order)
		order = append(order, start)
		placed[start] = true
		for ; head < len(order); head++ {
			v := order[head]
			first := len(order)
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				if w := a.ColIdx[p]; !placed[w] {
					placed[w] = true
					order = append(order, w)
				}
			}
			// Insertion sort by degree: stable, so equal degrees keep
			// the ascending column order the CSR row lists them in.
			for k := first + 1; k < len(order); k++ {
				for m := k; m > first && deg[order[m]] < deg[order[m-1]]; m-- {
					order[m], order[m-1] = order[m-1], order[m]
				}
			}
		}
	}
	slices.Reverse(order)
	return order
}

// peripheralNode finds a pseudo-peripheral node of root's component
// (George–Liu): breadth-first search from the current candidate, move to
// the lowest-degree node of the last level, and stop when that no longer
// lengthens the search. depth must be all −1 and is left so; queue is
// scratch with capacity a.N.
func peripheralNode(a *CSR, deg, depth []int, root int, queue []int) int {
	ecc := -1
	for {
		queue = append(queue[:0], root)
		depth[root] = 0
		last := 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
				if w := a.ColIdx[p]; depth[w] < 0 {
					depth[w] = depth[v] + 1
					last = depth[w]
					queue = append(queue, w)
				}
			}
		}
		next := -1
		for _, v := range queue {
			if depth[v] == last && (next < 0 || deg[v] < deg[next]) {
				next = v
			}
			depth[v] = -1
		}
		if last <= ecc {
			return root
		}
		ecc = last
		root = next
	}
}
