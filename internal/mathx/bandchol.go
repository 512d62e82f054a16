package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrBand reports that a banded Cholesky factorization is unavailable for
// a matrix: its band is wider than the caller's budget, or a pivot lost
// positive definiteness.
var ErrBand = errors.New("mathx: banded Cholesky unavailable")

// BandCholesky is a dense-band Cholesky factorization A = L·Lᵀ of a
// symmetric positive-definite CSR matrix whose nonzeros all lie within
// |i−j| ≤ bw. Structured-grid FDM matrices are exactly this shape
// (bandwidth = one grid dimension), and the trade is decisive for
// multi-RHS work: the O(n·bw²) factorization is paid once, after which
// every right-hand side costs two O(n·bw) triangular sweeps instead of
// hundreds of CG iterations. Solve is deterministic and safe to call
// concurrently (the factor is read-only after construction).
type BandCholesky struct {
	n, bw int
	// l stores L row-major with a fixed window per row:
	// l[i*(bw+1) + (j-i+bw)] = L[i][j] for i−bw ≤ j ≤ i. Slots left of
	// column 0 in the first bw rows are never touched (they stay zero).
	l []float64
}

// NewBandCholesky factors a. It fails with ErrBand if the matrix
// bandwidth exceeds maxBand (the caller's memory/cost budget — storage is
// n·(bw+1) floats) or if a pivot is non-positive (matrix not SPD).
func NewBandCholesky(a *CSR, maxBand int) (*BandCholesky, error) {
	n := a.N
	bw := 0
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if d := i - a.ColIdx[p]; d > bw {
				bw = d
			}
		}
	}
	if bw > maxBand {
		return nil, fmt.Errorf("%w: bandwidth %d exceeds budget %d", ErrBand, bw, maxBand)
	}
	stride := bw + 1
	l := make([]float64, n*stride)
	for i := 0; i < n; i++ {
		ri := i * stride
		// Scatter the lower part of row i of A into its band window; the
		// factorization below then runs in place.
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j <= i {
				l[ri+j-i+bw] = a.Val[p]
			}
		}
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			s := l[ri+j-i+bw]
			rj := j * stride
			ii := ri + lo - i + bw
			jj := rj + lo - j + bw
			for k := lo; k < j; k++ {
				s -= l[ii] * l[jj]
				ii++
				jj++
			}
			if j < i {
				l[ri+j-i+bw] = s / l[rj+bw]
				continue
			}
			if s <= 0 || math.IsNaN(s) {
				return nil, fmt.Errorf("%w: non-positive pivot at row %d", ErrBand, i)
			}
			l[ri+bw] = math.Sqrt(s)
		}
	}
	return &BandCholesky{n: n, bw: bw, l: l}, nil
}

// Bandwidth returns the factored (half-)bandwidth.
func (c *BandCholesky) Bandwidth() int { return c.bw }

// Solve writes the solution of A·x = b into x (forward then backward
// triangular sweep, in place in x, so b and x may alias). len(b) and
// len(x) must equal the matrix dimension.
func (c *BandCholesky) Solve(b, x []float64) {
	n, bw := c.n, c.bw
	stride := bw + 1
	// Forward: L·y = b, y stored in x.
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		s := b[i]
		ii := i*stride + lo - i + bw
		for k := lo; k < i; k++ {
			s -= c.l[ii] * x[k]
			ii++
		}
		x[i] = s / c.l[i*stride+bw]
	}
	// Backward: Lᵀ·x = y, descending so x[k>i] are already final.
	for i := n - 1; i >= 0; i-- {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		s := x[i]
		for k := i + 1; k <= hi; k++ {
			s -= c.l[k*stride+i-k+bw] * x[k]
		}
		x[i] = s / c.l[i*stride+bw]
	}
}
