package fdm

import (
	"fmt"
	"sort"

	"dsmtherm/internal/geometry"
	"dsmtherm/internal/mathx"
)

// Solver discretizes one array cross-section and solves steady-state heat
// conduction for arbitrary per-line dissipations. The mesh and matrix are
// built once. When the conduction matrix's band fits a memory budget (the
// row-major grid numbering makes the bandwidth exactly nx), NewSolver
// additionally pays a one-time banded Cholesky factorization, after which
// every Solve/SolveBatch RHS is two triangular sweeps instead of a CG
// run; otherwise each Solve is an IC(0)-preconditioned CG run (see
// mathx.SPD for the full fallback ladder). SolveBatch runs many
// independent RHS concurrently over the one shared setup either way.
type Solver struct {
	m   *mesh
	a   *mathx.CSR
	spd *mathx.SPD
	n   int
}

// cholEntryBudget caps the banded factor at 16M floats (128 MB): maxBand
// for an n-cell mesh is cholEntryBudget/n, so fine meshes degrade to PCG
// instead of exhausting memory.
const cholEntryBudget = 1 << 24

// NewSolver meshes the array at the given resolution (metres; a third of
// the smallest feature is a good default — see DefaultResolution) and
// factors the conduction matrix with a banded Cholesky when the band fits
// the memory budget — the multi-RHS fast path.
func NewSolver(ar *geometry.Array, res float64) (*Solver, error) {
	m, err := buildMesh(ar, res)
	if err != nil {
		return nil, err
	}
	s := &Solver{m: m, n: m.nx() * m.ny()}
	s.a = s.assemble()
	s.spd = mathx.NewSPD(s.a, cholEntryBudget/s.n)
	return s, nil
}

// DefaultResolution suggests a mesh resolution for the array: one third of
// the smallest line dimension or ILD thickness.
func DefaultResolution(ar *geometry.Array) float64 {
	min := ar.Passivation.Thickness
	for i := range ar.Levels {
		l := &ar.Levels[i]
		for _, d := range []float64{l.Width, l.Thick, l.ILD} {
			if d < min {
				min = d
			}
		}
	}
	return min / 3
}

// idx maps cell (i, j) to an unknown index.
func (s *Solver) idx(i, j int) int { return j*s.m.nx() + i }

// assemble builds the SPD conduction matrix: per-unit-length face
// conductances with series (harmonic) averaging of cell conductivities,
// Dirichlet ΔT = 0 at the substrate surface (y = 0), adiabatic elsewhere.
func (s *Solver) assemble() *mathx.CSR {
	m := s.m
	nx, ny := m.nx(), m.ny()
	co := mathx.NewCoord(s.n)
	face := func(d1, k1, d2, k2, w float64) float64 {
		// Conductance between two cell centers across their shared face
		// of width w: series half-cells.
		return w / (d1/(2*k1) + d2/(2*k2))
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := s.idx(i, j)
			// East neighbor.
			if i+1 < nx {
				g := face(m.dx(i), m.k[j][i], m.dx(i+1), m.k[j][i+1], m.dy(j))
				q := s.idx(i+1, j)
				co.Add(p, p, g)
				co.Add(q, q, g)
				co.Add(p, q, -g)
				co.Add(q, p, -g)
			}
			// North neighbor.
			if j+1 < ny {
				g := face(m.dy(j), m.k[j][i], m.dy(j+1), m.k[j+1][i], m.dx(i))
				q := s.idx(i, j+1)
				co.Add(p, p, g)
				co.Add(q, q, g)
				co.Add(p, q, -g)
				co.Add(q, p, -g)
			}
			// Substrate Dirichlet at y = 0: half-cell conductance to ΔT = 0.
			if j == 0 {
				g := m.dx(i) * m.k[j][i] / (m.dy(j) / 2)
				co.Add(p, p, g)
			}
		}
	}
	return co.ToCSR()
}

// Field is a solved temperature-rise distribution.
type Field struct {
	s  *Solver
	dt []float64 // ΔT per cell, kelvin
	// PowerPerLength holds the applied dissipations (W/m) by line.
	PowerPerLength map[LineRef]float64
}

// Lines lists every line present in the meshed array.
func (s *Solver) Lines() []LineRef { return append([]LineRef(nil), s.m.lines...) }

// rhs assembles the CG right-hand side for one dissipation map using the
// precomputed per-line cell lists (no grid rescan).
func (s *Solver) rhs(powers map[LineRef]float64) ([]float64, error) {
	b := make([]float64, s.n)
	for ref, p := range powers {
		li := s.m.lineIndex(ref)
		if li < 0 {
			return nil, fmt.Errorf("%w: no line %+v in array", ErrInvalid, ref)
		}
		if p < 0 {
			return nil, fmt.Errorf("%w: negative power for %+v", ErrInvalid, ref)
		}
		// Distribute uniformly over the line's cells: volumetric density
		// p/area times cell area.
		q := p / s.m.areas[li]
		c := &s.m.cells[li]
		for n, idx := range c.idxs {
			b[idx] += q * c.areas[n]
		}
	}
	return b, nil
}

// solveOne computes one field into x down the mathx.SPD fallback
// ladder, x serving as the CG warm start.
func (s *Solver) solveOne(b, x []float64, powers map[LineRef]float64) (*Field, error) {
	if err := s.spd.Solve(b, x, nil); err != nil {
		return nil, fmt.Errorf("fdm: conduction: %w", err)
	}
	pp := make(map[LineRef]float64, len(powers))
	for k, v := range powers {
		pp[k] = v
	}
	return &Field{s: s, dt: x, PowerPerLength: pp}, nil
}

// Solve computes the steady-state ΔT field for the given per-line
// dissipations in watts per metre of line (normal to the section). Lines
// not present in the map dissipate nothing.
func (s *Solver) Solve(powers map[LineRef]float64) (*Field, error) {
	b, err := s.rhs(powers)
	if err != nil {
		return nil, err
	}
	return s.solveOne(b, make([]float64, s.n), powers)
}

// SolveBatch solves many independent dissipation maps over one shared
// factorized setup, with the RHS after the first running concurrently
// across the mathx worker pool. On the direct (banded Cholesky) path
// each RHS is an independent pair of triangular sweeps over the
// read-only factor. On the CG fallback the first RHS is solved cold and
// every further RHS warm-starts from that first solution (the fields of
// one array are strongly correlated, so the warm start cuts iterations);
// the warm-start vector depends only on the inputs — never on worker
// scheduling. Either way a batch returns bit-identical fields at any
// worker count, including 1. Results assemble in request order; the
// error (if any) is the first failing index's.
func (s *Solver) SolveBatch(batch []map[LineRef]float64) ([]*Field, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	// Assemble and validate every RHS up front.
	bs := make([][]float64, len(batch))
	for i, powers := range batch {
		b, err := s.rhs(powers)
		if err != nil {
			return nil, fmt.Errorf("fdm: batch entry %d: %w", i, err)
		}
		bs[i] = b
	}
	fields := make([]*Field, len(batch))
	errs := make([]error, len(batch))
	f0, err := s.solveOne(bs[0], make([]float64, s.n), batch[0])
	if err != nil {
		return nil, fmt.Errorf("fdm: batch entry 0: %w", err)
	}
	fields[0] = f0
	if len(batch) > 1 {
		mathx.ParFor(len(batch)-1, func(k int) {
			i := k + 1
			x := append([]float64(nil), f0.dt...)
			fields[i], errs[i] = s.solveOne(bs[i], x, batch[i])
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("fdm: batch entry %d: %w", i, err)
			}
		}
	}
	return fields, nil
}

// LineDeltaT returns the area-averaged temperature rise of a line, using
// the precomputed cell list (O(cells of line), not O(nx·ny)).
func (f *Field) LineDeltaT(ref LineRef) (float64, error) {
	li := f.s.m.lineIndex(ref)
	if li < 0 {
		return 0, fmt.Errorf("%w: no line %+v in array", ErrInvalid, ref)
	}
	c := &f.s.m.cells[li]
	sum, area := 0.0, 0.0
	for n, idx := range c.idxs {
		sum += f.dt[idx] * c.areas[n]
		area += c.areas[n]
	}
	return sum / area, nil
}

// MaxDeltaT returns the hottest cell's temperature rise.
func (f *Field) MaxDeltaT() float64 {
	max := 0.0
	for _, v := range f.dt {
		if v > max {
			max = v
		}
	}
	return max
}

// At returns the temperature rise at the cell containing (x, y), clamping
// coordinates to the domain.
func (f *Field) At(x, y float64) float64 {
	m := f.s.m
	i := locate(m.xs, x)
	j := locate(m.ys, y)
	return f.dt[f.s.idx(i, j)]
}

// locate finds the cell index along one axis by binary search: the cell
// k with planes[k] ≤ v < planes[k+1], clamped to [0, n−1] outside the
// domain (matching the old linear scan exactly, including v landing on
// an interior plane belonging to the cell above it).
func locate(planes []float64, v float64) int {
	n := len(planes) - 1
	// First index with planes[k] ≥ v.
	k := sort.SearchFloat64s(planes, v)
	if k == len(planes) || planes[k] != v {
		k--
	}
	if k < 0 {
		return 0
	}
	if k > n-1 {
		return n - 1
	}
	return k
}

// ImpedancePerLength returns the per-unit-length thermal impedance
// (K·m/W) of a line in this field: its temperature rise divided by its
// own dissipation. With other lines heated too, this is the *effective*
// impedance, which is how §5's coupling factors are defined.
func (f *Field) ImpedancePerLength(ref LineRef) (float64, error) {
	p, ok := f.PowerPerLength[ref]
	if !ok || p <= 0 {
		return 0, fmt.Errorf("%w: line %+v carries no power", ErrInvalid, ref)
	}
	dt, err := f.LineDeltaT(ref)
	if err != nil {
		return 0, err
	}
	return dt / p, nil
}

// Grid exposes the mesh planes for rendering (examples/thermalmap).
func (f *Field) Grid() (xs, ys []float64) {
	return append([]float64(nil), f.s.m.xs...), append([]float64(nil), f.s.m.ys...)
}

// CellDeltaT returns ΔT of cell (i, j) in grid coordinates.
func (f *Field) CellDeltaT(i, j int) float64 { return f.dt[f.s.idx(i, j)] }
