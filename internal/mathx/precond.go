package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrPrecond reports a preconditioner that cannot be built for the given
// matrix (e.g. IC(0) breakdown on a matrix that is not SPD enough).
var ErrPrecond = errors.New("mathx: preconditioner breakdown")

// Precond selects the preconditioner used by SolveCGOpts.
type Precond int

const (
	// PrecondJacobi is diagonal scaling — the cheapest option and the
	// historical default of SolveCG.
	PrecondJacobi Precond = iota
	// PrecondSSOR is symmetric Gauss–Seidel (SSOR with ω = 1):
	// M = (D+L)·D⁻¹·(D+U). No setup beyond the diagonal; roughly halves
	// CG iteration counts on 2-D conduction matrices.
	PrecondSSOR
	// PrecondIC0 is zero-fill incomplete Cholesky. Strongest of the
	// three on the FDM stencils (3–6× fewer iterations than Jacobi);
	// setup can fail (ErrPrecond) when the matrix is not an M-matrix.
	PrecondIC0
)

// String names the preconditioner for logs and benchmarks.
func (p Precond) String() string {
	switch p {
	case PrecondJacobi:
		return "jacobi"
	case PrecondSSOR:
		return "ssor"
	case PrecondIC0:
		return "ic0"
	}
	return fmt.Sprintf("precond(%d)", int(p))
}

// Preconditioner applies z = M⁻¹·r. Implementations are reusable across
// solves on the same matrix (fdm builds one per Solver and shares it over
// every RHS of a batch) and must be safe for concurrent Apply calls with
// distinct argument slices.
type Preconditioner interface {
	Apply(r, z []float64)
}

// NewPreconditioner builds the selected preconditioner for a. The matrix
// must be symmetric with rows in ascending column order (as produced by
// Coord.ToCSR).
func NewPreconditioner(a *CSR, p Precond) (Preconditioner, error) {
	switch p {
	case PrecondJacobi:
		return newJacobi(a), nil
	case PrecondSSOR:
		return newSSOR(a)
	case PrecondIC0:
		return NewIC0(a)
	}
	return nil, fmt.Errorf("%w: unknown preconditioner %d", ErrPrecond, int(p))
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

func (j *jacobiPrec) Apply(r, z []float64) {
	for i, v := range r {
		z[i] = v * j.invd[i]
	}
}

// ssorPrec applies M⁻¹ for M = (D+L)·D⁻¹·(D+U): one forward and one
// backward triangular sweep over the matrix rows. The sweeps are
// inherently sequential but deterministic; the win is the iteration-count
// reduction, not intra-apply parallelism.
type ssorPrec struct {
	a *CSR
	d []float64
}

func newSSOR(a *CSR) (*ssorPrec, error) {
	d := a.Diag()
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("%w: zero diagonal at row %d", ErrPrecond, i)
		}
	}
	return &ssorPrec{a: a, d: d}, nil
}

func (s *ssorPrec) Apply(r, z []float64) {
	a, d := s.a, s.d
	n := a.N
	// Forward solve (D+L)·u = r, writing u into z.
	for i := 0; i < n; i++ {
		sum := r[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j >= i {
				break
			}
			sum -= a.Val[k] * z[j]
		}
		z[i] = sum / d[i]
	}
	// v = D·u, then backward solve (D+U)·z = v. Expanding, the update is
	// z[i] = u[i] − (Σ_{j>i} a_ij·z[j]) / d[i].
	for i := n - 1; i >= 0; i-- {
		sum := 0.0
		for k := a.RowPtr[i+1] - 1; k >= a.RowPtr[i]; k-- {
			j := a.ColIdx[k]
			if j <= i {
				break
			}
			sum += a.Val[k] * z[j]
		}
		z[i] -= sum / d[i]
	}
}

// IC0 is the zero-fill incomplete Cholesky factor L (A ≈ L·Lᵀ on A's
// lower-triangular sparsity), stored row-compressed. The factor is
// reusable two ways: across solves on one matrix (Apply is read-only),
// and across matrices sharing a sparsity pattern via Refactor, which
// restamps values into the existing storage — the path the coupled
// electrothermal loop uses to refresh the preconditioner every pass
// without reallocating.
type IC0 struct {
	n      int
	rowPtr []int
	colIdx []int
	val    []float64
	diag   []float64 // l_ii
	diagA  []float64 // scratch: diagonal of A, refreshed by Refactor
}

// NewIC0 builds the IC(0) factor of a, which must be symmetric with rows
// in ascending column order (as produced by Coord.ToCSR). Fails with
// ErrPrecond when a pivot breaks down (matrix not SPD enough).
func NewIC0(a *CSR) (*IC0, error) {
	n := a.N
	f := &IC0{n: n, rowPtr: make([]int, n+1), diag: make([]float64, n), diagA: make([]float64, n)}
	// Record the strictly-lower pattern (columns ascending) row by row;
	// Refactor fills in the values.
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
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factorization for a matrix with the same
// sparsity pattern as the one the factor was built from (values may
// differ), reusing all existing storage — no allocation. On error the
// factor contents are undefined; rebuild with NewIC0 or fall back to
// another preconditioner before the next Apply.
func (f *IC0) Refactor(a *CSR) error {
	if a.N != f.n {
		return fmt.Errorf("%w: IC(0) refactor dimension mismatch (%d vs %d)", ErrPrecond, a.N, f.n)
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
		return fmt.Errorf("%w: IC(0) refactor pattern mismatch", ErrPrecond)
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
			return fmt.Errorf("%w: IC(0) pivot %g at row %d", ErrPrecond, s, i)
		}
		f.diag[i] = math.Sqrt(s)
	}
	return nil
}

// Apply solves L·Lᵀ·z = r by one forward and one backward substitution.
func (f *IC0) Apply(r, z []float64) {
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
