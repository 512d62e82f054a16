// Package powergrid analyzes on-chip power-distribution grids — the
// "power lines" side of the paper's design-rule split (unipolar, r = 1.0).
//
// A grid is a rectangular mesh of straps on two adjacent metallization
// levels (horizontal straps on one, vertical on the other, via-connected
// at every crossing), fed from Vdd pads and discharged by block current
// sinks. The solver computes node voltages (IR drop) and branch currents
// by nodal analysis, and optionally iterates an electrothermal loop: each
// strap's resistance is evaluated at the metal temperature its own RMS
// current produces (core.TemperatureAtJrms with the quasi-2-D model), so
// hot straps sag more — the coupling the paper's r = 1 rules guard.
//
// Results report the worst IR drop, the per-branch current densities for
// checking against a rules.Deck power limit, and the hottest strap.
package powergrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"dsmtherm/internal/core"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
)

// ErrInvalid reports an ill-formed grid or load set.
var ErrInvalid = errors.New("powergrid: invalid parameters")

// Node addresses a grid crossing: column i ∈ [0, Nx), row j ∈ [0, Ny).
type Node struct{ I, J int }

// Load is a DC current sink (block supply draw) at a node, amperes.
type Load struct {
	Node
	Current float64
}

// Grid describes the mesh.
type Grid struct {
	Tech *ntrs.Technology
	// HLevel carries the horizontal straps (rows), VLevel the vertical
	// ones (columns). They are usually the top two levels.
	HLevel, VLevel int
	// Nx, Ny are the numbers of vertical and horizontal straps (so the
	// node mesh is Nx × Ny).
	Nx, Ny int
	// PitchX, PitchY are the strap pitches, m (branch lengths).
	PitchX, PitchY float64
	// WidthMultiple scales both levels' minimum widths for the straps.
	WidthMultiple float64
	// Pads are the Vdd connections (ideal, zero impedance).
	Pads []Node
}

// Validate checks the grid.
func (g *Grid) Validate() error {
	if g.Tech == nil {
		return fmt.Errorf("%w: nil technology", ErrInvalid)
	}
	if _, err := g.Tech.Layer(g.HLevel); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if _, err := g.Tech.Layer(g.VLevel); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if g.Nx < 2 || g.Ny < 2 {
		return fmt.Errorf("%w: mesh %dx%d too small", ErrInvalid, g.Nx, g.Ny)
	}
	if g.PitchX <= 0 || g.PitchY <= 0 || g.WidthMultiple < 1 {
		return fmt.Errorf("%w: pitch/width", ErrInvalid)
	}
	if len(g.Pads) == 0 {
		return fmt.Errorf("%w: no pads", ErrInvalid)
	}
	for _, p := range g.Pads {
		if !g.inRange(p) {
			return fmt.Errorf("%w: pad %v outside mesh", ErrInvalid, p)
		}
	}
	return nil
}

func (g *Grid) inRange(n Node) bool {
	return n.I >= 0 && n.I < g.Nx && n.J >= 0 && n.J < g.Ny
}

func (g *Grid) nodeIndex(n Node) int { return n.J*g.Nx + n.I }

// Branch identifies one strap segment between adjacent nodes.
type Branch struct {
	From, To   Node
	Horizontal bool
	// Current is the solved branch current From→To, A.
	Current float64
	// J is the current density magnitude, A/m².
	J float64
	// Tm is the strap temperature from the electrothermal loop (or Tref
	// for a cold solve), K.
	Tm float64
}

// Solution is a solved grid.
type Solution struct {
	Grid *Grid
	// V[j][i] is the node voltage, volts below Vdd (i.e. the IR drop; 0
	// at pads).
	Drop [][]float64
	// Branches lists every strap segment with solved currents.
	Branches []Branch
	// WorstDrop is the maximum IR drop, V.
	WorstDrop float64
	// WorstDropNode is where it occurs.
	WorstDropNode Node
	// MaxJ is the highest branch current density, A/m².
	MaxJ float64
	// HottestTm is the highest strap temperature, K.
	HottestTm float64
	// Iterations is the number of electrothermal passes performed.
	Iterations int
}

// SolveOpts configures a solve.
type SolveOpts struct {
	// Electrothermal enables the temperature-resistance feedback loop.
	Electrothermal bool
	// MaxIter caps the feedback iterations (default 10, hard cap
	// maxElectroIter; negative is ErrInvalid).
	MaxIter int
	// Tref is the reference temperature, K (default 100 °C).
	Tref float64
}

// maxElectroIter is the firm ceiling on electrothermal feedback passes:
// a converging loop settles in a handful, so anything beyond this is a
// misconfigured request spinning, not progress.
const maxElectroIter = 1000

// Solve computes the DC IR-drop solution for the given loads. It
// delegates to SolveCtx with a background context.
func (g *Grid) Solve(loads []Load, opts SolveOpts) (*Solution, error) {
	return g.SolveCtx(context.Background(), loads, opts)
}

// SolveCtx is Solve with cancellation: the electrothermal fixed-point
// loop checks ctx before every nodal pass, so a cancelled request stops
// within one linear solve instead of running its full iteration budget.
func (g *Grid) SolveCtx(ctx context.Context, loads []Load, opts SolveOpts) (*Solution, error) {
	if opts.MaxIter < 0 {
		return nil, fmt.Errorf("%w: negative MaxIter %d", ErrInvalid, opts.MaxIter)
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 10
	}
	opts.MaxIter = min(opts.MaxIter, maxElectroIter)
	if opts.Tref == 0 {
		opts.Tref = phys.CToK(100)
	}
	nodal, err := g.NewNodal(loads)
	if err != nil {
		return nil, err
	}

	temps := make([]float64, nodal.NumBranches())
	for i := range temps {
		temps[i] = opts.Tref
	}

	var sol *Solution
	iters := 1
	if opts.Electrothermal {
		iters = opts.MaxIter
	}
	prevWorst := math.Inf(1)
	for pass := 0; pass < iters; pass++ {
		sol, err = nodal.SolveInto(ctx, temps, sol)
		if err != nil {
			return nil, err
		}
		sol.Iterations = pass + 1
		if !opts.Electrothermal {
			break
		}
		// Update strap temperatures from their own Joule heating.
		changed := false
		for i := range temps {
			tm, err := g.branchTemperature(&sol.Branches[i], sol.Branches[i].J, opts.Tref)
			if err != nil {
				return nil, err
			}
			if math.Abs(tm-temps[i]) > 0.01 {
				changed = true
			}
			temps[i] = tm
			sol.Branches[i].Tm = tm
		}
		if !changed || math.Abs(sol.WorstDrop-prevWorst) < 1e-9 {
			break
		}
		prevWorst = sol.WorstDrop
	}
	// Final bookkeeping of temperatures.
	sol.HottestTm = opts.Tref
	for i := range sol.Branches {
		sol.Branches[i].Tm = temps[i]
		if temps[i] > sol.HottestTm {
			sol.HottestTm = temps[i]
		}
	}
	return sol, nil
}

// branches enumerates the strap segments into one allocation.
func (g *Grid) branches() []Branch {
	out := make([]Branch, 0, max(0, g.Ny*(g.Nx-1)+g.Nx*(g.Ny-1)))
	for j := 0; j < g.Ny; j++ {
		for i := 0; i+1 < g.Nx; i++ {
			out = append(out, Branch{From: Node{i, j}, To: Node{i + 1, j}, Horizontal: true})
		}
	}
	for i := 0; i < g.Nx; i++ {
		for j := 0; j+1 < g.Ny; j++ {
			out = append(out, Branch{From: Node{i, j}, To: Node{i, j + 1}, Horizontal: false})
		}
	}
	return out
}

// Branches enumerates the strap segments with their topology (From, To,
// Horizontal); currents and temperatures are zero. The order — all
// horizontal straps row-major, then all vertical straps column-major —
// is the index space every Solution.Branches slice and every
// per-branch temperature vector uses.
func (g *Grid) Branches() []Branch { return g.branches() }

// BranchGeometry returns the metallization level, length (m) and
// cross-section area (m²) of a branch — the extraction API chip-level
// checkers use to turn solved branch currents into current densities
// and Joule powers.
func (g *Grid) BranchGeometry(b *Branch) (level int, length, area float64) {
	return g.branchGeometry(b)
}

// branchGeometry returns the layer, length and cross-section of a branch.
func (g *Grid) branchGeometry(b *Branch) (level int, length, area float64) {
	if b.Horizontal {
		layer := &g.Tech.Layers[g.HLevel-1]
		return g.HLevel, g.PitchX, layer.Width * g.WidthMultiple * layer.Thick
	}
	layer := &g.Tech.Layers[g.VLevel-1]
	return g.VLevel, g.PitchY, layer.Width * g.WidthMultiple * layer.Thick
}

// branchTemperature evaluates the strap's self-heated temperature at the
// given current density (DC: jrms = j).
func (g *Grid) branchTemperature(b *Branch, j, tref float64) (float64, error) {
	if j == 0 {
		return tref, nil
	}
	level, _, _ := g.branchGeometry(b)
	line, err := g.Tech.Line(level, 1e-3)
	if err != nil {
		return 0, err
	}
	line.Width *= g.WidthMultiple
	prob := core.Problem{
		Line:  line,
		Model: thermal.Quasi2D(),
		R:     1,
		J0:    1, // unused by TemperatureAtJrms beyond validation
		Tref:  tref,
	}
	tm, err := core.TemperatureAtJrms(prob, j)
	if err != nil {
		// Runaway: clamp at the ceiling so the loop reports the hazard.
		return tref + core.TCeilingAboveRef, nil
	}
	return tm, nil
}

// Mesh is the geometry-only half of nodal analysis on one grid: the
// branch topology with each branch's length and cross-section, the
// conductance matrix's sparsity pattern with the slot tables a stamp
// writes through, and optionally the banded factor of that matrix
// stamped with every branch at one reference temperature. A Mesh is
// read-only once built, so any number of Nodal sessions may run on one
// concurrently.
type Mesh struct {
	g        *Grid
	branches []Branch
	isPad    []bool
	// length/area cache branchGeometry per branch.
	length, area []float64
	// The sparsity pattern is fixed by the topology — only the
	// conductance values are temperature-dependent — so a session's
	// matrix shares rowPtr and colIdx and restamps its own values in
	// place through precomputed slots. This keeps the electrothermal
	// loop's per-pass allocation near zero (no COO triplets, no assembly
	// sort, no CSR or preconditioner rebuild), which matters for latency
	// as much as throughput: assembly garbage was the dominant GC trigger
	// during coupled solves.
	rowPtr, colIdx []int
	slots          [][4]int // value slots per branch: (f,f),(f,t),(t,t),(t,f); -1 absent
	padSlots       []int    // diagonal slots of pad rows (identity stamp)
	// chol, when set, is the factor of the matrix stamped with every
	// branch at tref.
	tref float64
	chol *mathx.BandCholesky
}

// newMesh validates the grid and builds its topology and pattern.
func (g *Grid) newMesh() (*Mesh, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Nx * g.Ny
	m := &Mesh{g: g, branches: g.branches(), isPad: make([]bool, n)}
	for _, p := range g.Pads {
		m.isPad[g.nodeIndex(p)] = true
	}
	m.length = make([]float64, len(m.branches))
	m.area = make([]float64, len(m.branches))
	for bi := range m.branches {
		_, m.length[bi], m.area[bi] = g.branchGeometry(&m.branches[bi])
	}
	// The sparsity pattern is the 5-point mesh stencil with pad rows and
	// columns reduced to the diagonal (exactly what a stamp emits), so
	// the CSR is built directly in ascending-column order — no COO
	// triplets and no assembly sort.
	a := &mathx.CSR{N: n, RowPtr: make([]int, n+1)}
	cols := make([]int, 0, 5*n)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			idx := j*g.Nx + i
			if m.isPad[idx] {
				cols = append(cols, idx)
				a.RowPtr[idx+1] = len(cols)
				continue
			}
			if j > 0 && !m.isPad[idx-g.Nx] {
				cols = append(cols, idx-g.Nx)
			}
			if i > 0 && !m.isPad[idx-1] {
				cols = append(cols, idx-1)
			}
			cols = append(cols, idx)
			if i+1 < g.Nx && !m.isPad[idx+1] {
				cols = append(cols, idx+1)
			}
			if j+1 < g.Ny && !m.isPad[idx+g.Nx] {
				cols = append(cols, idx+g.Nx)
			}
			a.RowPtr[idx+1] = len(cols)
		}
	}
	a.ColIdx = cols
	m.rowPtr, m.colIdx = a.RowPtr, a.ColIdx
	m.slots = make([][4]int, len(m.branches))
	for bi := range m.branches {
		b := &m.branches[bi]
		f, t := g.nodeIndex(b.From), g.nodeIndex(b.To)
		s := [4]int{-1, -1, -1, -1}
		if !m.isPad[f] {
			s[0] = a.Slot(f, f)
			if !m.isPad[t] {
				s[1] = a.Slot(f, t)
			}
		}
		if !m.isPad[t] {
			s[2] = a.Slot(t, t)
			if !m.isPad[f] {
				s[3] = a.Slot(t, f)
			}
		}
		m.slots[bi] = s
	}
	for i := 0; i < n; i++ {
		if m.isPad[i] {
			m.padSlots = append(m.padSlots, a.Slot(i, i))
		}
	}
	return m, nil
}

// NewMesh builds the grid's mesh and factors its conductance matrix
// with every branch at tref (K): a session whose first solve is at tref
// starts from that shared factor instead of factoring its own, and
// reaches the same bits.
func (g *Grid) NewMesh(tref float64) (*Mesh, error) {
	m, err := g.newMesh()
	if err != nil {
		return nil, err
	}
	temps := make([]float64, len(m.branches))
	for i := range temps {
		temps[i] = tref
	}
	a := m.matrix()
	m.stamp(a.Val, make([]float64, len(m.branches)), temps)
	// A band over budget or a lost pivot leaves chol nil, and each
	// session then finds the same on its own first pass.
	m.chol, _ = mathx.NewBandCholesky(a, mathx.CholEntryBudget/a.N)
	m.tref = tref
	return m, nil
}

// NumBranches returns the branch count.
func (m *Mesh) NumBranches() int { return len(m.branches) }

// Branch returns branch bi's end nodes as row-major indices (stride
// Nx), and its length (m) and cross-section area (m²).
func (m *Mesh) Branch(bi int) (from, to int, length, area float64) {
	b := &m.branches[bi]
	return m.g.nodeIndex(b.From), m.g.nodeIndex(b.To), m.length[bi], m.area[bi]
}

// Bytes estimates the memory the mesh holds, shared factor included.
func (m *Mesh) Bytes() int {
	const word = 8
	n := int(unsafe.Sizeof(Branch{}))*len(m.branches) + len(m.isPad) +
		word*(len(m.length)+len(m.area)+len(m.rowPtr)+len(m.colIdx)+4*len(m.slots)+len(m.padSlots))
	if m.chol != nil {
		n += m.chol.Bytes()
	}
	return n
}

// matrix returns a CSR on the mesh's pattern with zeroed values of its
// own.
func (m *Mesh) matrix() *mathx.CSR {
	return &mathx.CSR{N: len(m.isPad), RowPtr: m.rowPtr, ColIdx: m.colIdx, Val: make([]float64, len(m.colIdx))}
}

// stamp writes the conductance matrix at the per-branch temperatures
// into val, and each branch's conductance into conds. Branch order is
// fixed, so the stamped values — and every downstream result — are
// bit-identical run to run.
func (m *Mesh) stamp(val, conds, temps []float64) {
	clear(val)
	metal := m.g.Tech.Metal
	for bi := range m.branches {
		rho := metal.Resistivity(temps[bi])
		gcond := m.area[bi] / (rho * m.length[bi])
		conds[bi] = gcond
		s := &m.slots[bi]
		if s[0] >= 0 {
			val[s[0]] += gcond
		}
		if s[1] >= 0 {
			val[s[1]] -= gcond
		}
		if s[2] >= 0 {
			val[s[2]] += gcond
		}
		if s[3] >= 0 {
			val[s[3]] -= gcond
		}
	}
	// Pad rows: identity (drop = 0).
	for _, k := range m.padSlots {
		val[k] = 1
	}
}

// Nodal is a reusable nodal-analysis session over one (mesh, loads)
// pair: the mesh's shared geometry plus the per-solve state — the
// conductance values, the load injections, the warm start and the CG
// scratch. The first Solve factors the stamped conductance matrix
// (banded Cholesky in its short-side order, when the band fits
// mathx.CholEntryBudget), or starts from the mesh's shared factor when
// it is at the mesh's reference temperature, and solves directly; each
// later Solve only restamps the temperature-dependent conductances and
// runs CG preconditioned by that first factor, warm-started from the
// previous call's drop vector (see mathx.SPD). That makes an external
// electrothermal loop — the grid's own Solve, or a chip-level coupled
// checker driving branch temperatures from a shared thermal map — pay
// a few sweeps per temperature update. Solve results are deterministic
// (the kernels are bit-identical at any worker count) but a Nodal is
// not safe for concurrent use.
type Nodal struct {
	m       *Mesh
	rhsBase []float64 // load injections, temperature-independent
	x       []float64 // warm-start drop vector
	a       *mathx.CSR
	conds   []float64
	// spd is the solve ladder over a, built by the first Solve on
	// stamped values (a holds zeros until then) and marked stale by
	// every later restamp.
	spd *mathx.SPD
	cg  mathx.CGScratch
}

// NewNodal validates the grid and loads and builds a session on a mesh
// of its own.
func (g *Grid) NewNodal(loads []Load) (*Nodal, error) {
	m, err := g.newMesh()
	if err != nil {
		return nil, err
	}
	return m.NewNodal(loads)
}

// NewNodal validates the loads and starts a session on the mesh.
func (m *Mesh) NewNodal(loads []Load) (*Nodal, error) {
	g := m.g
	for _, l := range loads {
		if !g.inRange(l.Node) {
			return nil, fmt.Errorf("%w: load %v outside mesh", ErrInvalid, l.Node)
		}
		if l.Current < 0 || math.IsNaN(l.Current) || math.IsInf(l.Current, 0) {
			return nil, fmt.Errorf("%w: load %g A at %v", ErrInvalid, l.Current, l.Node)
		}
	}
	n := len(m.isPad)
	nd := &Nodal{m: m, rhsBase: make([]float64, n), x: make([]float64, n),
		a: m.matrix(), conds: make([]float64, len(m.branches))}
	// Loads: current drawn out of the node (drop formulation: I enters
	// the drop network). Pad-sited loads draw straight from the supply.
	for _, l := range loads {
		if idx := g.nodeIndex(l.Node); !m.isPad[idx] {
			nd.rhsBase[idx] += l.Current
		}
	}
	return nd, nil
}

// NumBranches returns the branch count (the length of every temps
// vector Solve accepts).
func (nd *Nodal) NumBranches() int { return len(nd.m.branches) }

// Solve performs one nodal-analysis pass with the given per-branch
// temperatures (len must equal NumBranches). Successive calls
// warm-start from the previous solution.
func (nd *Nodal) Solve(ctx context.Context, temps []float64) (*Solution, error) {
	return nd.SolveInto(ctx, temps, nil)
}

// SolveInto is Solve reusing the buffers of a Solution returned by a
// previous call on this session (pass nil to allocate fresh). The
// electrothermal loops call it with last pass's Solution, so a coupled
// solve's steady state allocates nothing per pass — results are
// identical either way. The reused Solution must no longer be read by
// the caller; it is overwritten in place.
func (nd *Nodal) SolveInto(ctx context.Context, temps []float64, reuse *Solution) (*Solution, error) {
	m := nd.m
	if len(temps) != len(m.branches) {
		return nil, fmt.Errorf("%w: %d temperatures for %d branches", ErrInvalid, len(temps), len(m.branches))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := m.g
	a, conds := nd.a, nd.conds
	m.stamp(a.Val, conds, temps)
	switch {
	case nd.spd != nil:
		nd.spd.Refactor()
	case m.chol != nil && allAt(temps, m.tref):
		// These values are the ones the mesh factored.
		nd.spd = mathx.NewSPDFactored(a, m.chol)
	default:
		nd.spd = mathx.NewSPD(a, mathx.CholEntryBudget/a.N)
	}
	if err := nd.spd.Solve(nd.rhsBase, nd.x, &nd.cg); err != nil {
		return nil, fmt.Errorf("powergrid: IR drop: %w", err)
	}
	x := nd.x

	sol := reuse
	if sol == nil || len(sol.Branches) != len(m.branches) ||
		len(sol.Drop) != g.Ny || len(sol.Drop[0]) != g.Nx {
		sol = &Solution{Grid: g, Drop: make([][]float64, g.Ny), Branches: make([]Branch, len(m.branches))}
		rows := make([]float64, g.Ny*g.Nx)
		for j := 0; j < g.Ny; j++ {
			sol.Drop[j] = rows[j*g.Nx : (j+1)*g.Nx : (j+1)*g.Nx]
		}
	}
	*sol = Solution{Grid: g, Drop: sol.Drop, Branches: sol.Branches}
	for j := 0; j < g.Ny; j++ {
		row := sol.Drop[j]
		for i := 0; i < g.Nx; i++ {
			d := x[g.nodeIndex(Node{i, j})]
			row[i] = d
			if d > sol.WorstDrop {
				sol.WorstDrop = d
				sol.WorstDropNode = Node{i, j}
			}
		}
	}
	for bi := range m.branches {
		b := m.branches[bi]
		f, t := g.nodeIndex(b.From), g.nodeIndex(b.To)
		// Current flows from lower drop to higher drop within the drop
		// network; in the physical grid it flows toward the loads.
		b.Current = conds[bi] * (x[t] - x[f])
		b.J = math.Abs(b.Current) / m.area[bi]
		b.Tm = temps[bi]
		if b.J > sol.MaxJ {
			sol.MaxJ = b.J
		}
		sol.Branches[bi] = b
	}
	return sol, nil
}

// allAt reports whether every temperature is exactly t.
func allAt(temps []float64, t float64) bool {
	for _, v := range temps {
		if v != t {
			return false
		}
	}
	return true
}

// TotalLoad sums the sink currents.
func TotalLoad(loads []Load) float64 {
	s := 0.0
	for _, l := range loads {
		s += l.Current
	}
	return s
}

// PadCurrents returns the current delivered by each pad (A), computed
// from the solved branch flows: a pad's delivery is the net current
// leaving it into the grid.
func (s *Solution) PadCurrents() map[Node]float64 {
	out := map[Node]float64{}
	for _, p := range s.Grid.Pads {
		out[p] = 0
	}
	for _, b := range s.Branches {
		// b.Current > 0 means flow From→... toward higher drop, i.e.
		// away from supply: it leaves From.
		if _, ok := out[b.From]; ok {
			out[b.From] += b.Current
		}
		if _, ok := out[b.To]; ok {
			out[b.To] -= b.Current
		}
	}
	return out
}
