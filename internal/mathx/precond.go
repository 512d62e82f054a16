package mathx

import (
	"errors"
	"fmt"
	"math"
)

// errPrecond reports a preconditioner that cannot be built for the given
// matrix (IC(0) breakdown on a matrix that is not SPD enough).
var errPrecond = errors.New("mathx: preconditioner breakdown")

// preconditioner applies z = M⁻¹·r. Implementations are read-only after
// construction, so one instance serves concurrent CG solves with
// distinct argument slices.
type preconditioner interface {
	apply(r, z []float64)
}

// jacobiPrec is diagonal scaling; zero diagonals pass through unscaled.
type jacobiPrec struct{ invd []float64 }

func newJacobi(a *CSR) *jacobiPrec {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			v = 1
		}
		inv[i] = 1 / v
	}
	return &jacobiPrec{invd: inv}
}

func (j *jacobiPrec) apply(r, z []float64) {
	for i, v := range r {
		z[i] = v * j.invd[i]
	}
}

// ic0 is the zero-fill incomplete Cholesky factor L (A ≈ L·Lᵀ on A's
// lower-triangular sparsity), stored row-compressed. On the FDM
// stencils it cuts CG iterations 3–6× against Jacobi. refactor restamps
// new values of the same pattern into the existing storage — the path
// the coupled electrothermal loop uses to refresh the preconditioner
// every pass without reallocating.
type ic0 struct {
	n      int
	rowPtr []int
	colIdx []int
	val    []float64
	diag   []float64 // l_ii
	diagA  []float64 // scratch: diagonal of A, refreshed by refactor
}

// newIC0 builds the IC(0) factor of a, which must be symmetric with rows
// in ascending column order (as produced by Coord.ToCSR). Fails with
// errPrecond when a pivot breaks down (matrix not SPD enough).
func newIC0(a *CSR) (*ic0, error) {
	n := a.N
	f := &ic0{n: n, rowPtr: make([]int, n+1), diag: make([]float64, n), diagA: make([]float64, n)}
	// Record the strictly-lower pattern (columns ascending) row by row;
	// refactor fills in the values.
	for i := 0; i < n; i++ {
		f.rowPtr[i] = len(f.colIdx)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j < i {
				f.colIdx = append(f.colIdx, j)
			}
		}
	}
	f.rowPtr[n] = len(f.colIdx)
	f.val = make([]float64, len(f.colIdx))
	if err := f.refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// refactor recomputes the factorization for a matrix with the sparsity
// pattern the factor was built from (values may differ), reusing all
// existing storage — no allocation. On error the factor contents are
// undefined and the factor must not be applied.
func (f *ic0) refactor(a *CSR) error {
	if a.N != f.n {
		return fmt.Errorf("%w: IC(0) refactor dimension mismatch (%d vs %d)", errPrecond, a.N, f.n)
	}
	// Restamp the strictly-lower values and the diagonal from a.
	p := 0
	for i := 0; i < f.n; i++ {
		f.diagA[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j < i {
				f.val[p] = a.Val[k]
				p++
			} else if j == i {
				f.diagA[i] = a.Val[k]
			}
		}
	}
	if p != len(f.val) {
		return fmt.Errorf("%w: IC(0) refactor pattern mismatch", errPrecond)
	}
	// Row-oriented factorization. FDM stencils have ≤ 2 strictly-lower
	// entries per row, so the sparse row intersections below are tiny.
	for i := 0; i < f.n; i++ {
		// l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj for each stored j < i.
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			j := f.colIdx[p]
			sum := f.val[p]
			// Intersect row i (entries before p) with row j.
			pi, pj := f.rowPtr[i], f.rowPtr[j]
			for pi < p && pj < f.rowPtr[j+1] {
				ci, cj := f.colIdx[pi], f.colIdx[pj]
				switch {
				case ci == cj:
					sum -= f.val[pi] * f.val[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			f.val[p] = sum / f.diag[j]
		}
		// l_ii = sqrt(a_ii − Σ_{k<i} l_ik²).
		s := f.diagA[i]
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			s -= f.val[p] * f.val[p]
		}
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("%w: IC(0) pivot %g at row %d", errPrecond, s, i)
		}
		f.diag[i] = math.Sqrt(s)
	}
	return nil
}

// apply solves L·Lᵀ·z = r by one forward and one backward substitution.
func (f *ic0) apply(r, z []float64) {
	n := f.n
	// Forward: L·y = r (y in z).
	for i := 0; i < n; i++ {
		s := r[i]
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			s -= f.val[p] * z[f.colIdx[p]]
		}
		z[i] = s / f.diag[i]
	}
	// Backward: Lᵀ·z = y, column-oriented over L's rows.
	for i := n - 1; i >= 0; i-- {
		z[i] /= f.diag[i]
		zi := z[i]
		for p := f.rowPtr[i]; p < f.rowPtr[i+1]; p++ {
			z[f.colIdx[p]] -= f.val[p] * zi
		}
	}
}
