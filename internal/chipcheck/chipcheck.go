// Package chipcheck runs the full-chip coupled EM + IR-drop + thermal
// signoff — the chip-scale version of the paper's central claim that
// interconnect temperature, current density and EM lifetime must be
// signed off together.
//
// The pipeline: solve the power grid's IR drop (nodal analysis), turn
// the solved branch currents into per-tile Joule powers, push those
// through a plan-view substrate thermal map (fdm.SheetSolver — the
// conduction matrix is factored once and reused every iteration),
// re-derate each strap's resistivity at its new local temperature, and
// repeat to a fixed point on the tile temperature field. Then a single
// linear pass over all branches produces per-segment EM verdicts
// (Blech immortality + closed-form lifetime ratio — no per-segment
// root solves) and summary quantiles.
//
// Everything downstream of Compile is a pure function of Params:
// Solve is bit-deterministic at any worker count, and Verdicts over
// any tile range depends only on (Params, range) — the property the
// jobs runner's checkpointed crash-resume relies on.
package chipcheck

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dsmtherm/internal/em"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/powergrid"
)

// ErrInvalid reports an ill-formed chipcheck request.
var ErrInvalid = errors.New("chipcheck: invalid parameters")

// Hard caps: a request is rejected, not truncated, beyond these. They
// bound fuzz-driven allocation and keep one check inside one process.
const (
	// MaxNodes caps Nx*Ny (≈ 2·MaxNodes branches).
	MaxNodes = 1 << 19
	// MaxSolveIter caps the coupled fixed-point iterations.
	MaxSolveIter = 200
	// maxSegmentsOut caps the per-segment verdict stream echoed in a
	// synchronous Result (job results carry the full stream).
	maxSegmentsOut = 1 << 16
	// WorstOut is how many worst-ratio segments a Report always carries.
	WorstOut = 20
)

// NodeRef addresses a grid node in requests.
type NodeRef struct {
	I int `json:"i"`
	J int `json:"j"`
}

// LoadSpec is a current sink at a node, amperes.
type LoadSpec struct {
	I    int     `json:"i"`
	J    int     `json:"j"`
	Amps float64 `json:"amps"`
}

// Params is the wire-format chipcheck request, shared by the
// synchronous /v1/chipcheck handler and the chipcheck job runner.
// Pointer fields follow the pointer-or-presence convention: absent
// means default, present means the client's value (zeros included).
type Params struct {
	// Technology selection (same vocabulary as /v1/rules).
	Node  string `json:"node,omitempty"`
	Gap   string `json:"gap,omitempty"`
	Metal string `json:"metal,omitempty"`

	// Grid topology. HLevel/VLevel default to the top two levels.
	HLevel int `json:"hLevel,omitempty"`
	VLevel int `json:"vLevel,omitempty"`
	Nx     int `json:"nx"`
	Ny     int `json:"ny"`
	// Strap pitches, µm (default 200) and width multiple (default 4).
	PitchXUm      *float64 `json:"pitchXUm,omitempty"`
	PitchYUm      *float64 `json:"pitchYUm,omitempty"`
	WidthMultiple *float64 `json:"widthMultiple,omitempty"`

	// Vdd pads: an explicit list, the full boundary ring, or both.
	Pads    []NodeRef `json:"pads,omitempty"`
	PadRing bool      `json:"padRing,omitempty"`

	// Block current sinks: explicit point loads and/or a total current
	// spread uniformly over every non-pad node.
	Loads        []LoadSpec `json:"loads,omitempty"`
	UniformLoadA *float64   `json:"uniformLoadA,omitempty"`

	// EM budget at Tref, MA/cm² (default 1.8) and reference corner, °C
	// (default 100).
	J0MA  *float64 `json:"j0MA,omitempty"`
	TrefC *float64 `json:"trefC,omitempty"`

	// Coupled-loop controls: iteration cap (default 25, max
	// MaxSolveIter) and convergence tolerance on the tile temperature
	// field, K (default 0.01).
	MaxIter *int     `json:"maxIter,omitempty"`
	TolK    *float64 `json:"tolK,omitempty"`

	// Thermal map: substrate lateral sheet conductance, W/K per square
	// (default 0.015 ≈ k_Si × 100 µm spreading depth) and package sink
	// film coefficient, W/(m²·K) (default 1e4).
	SheetCondWPerK *float64 `json:"sheetCondWPerK,omitempty"`
	SinkWPerM2K    *float64 `json:"sinkWPerM2K,omitempty"`

	// IR-drop budget as a fraction of Vdd (default 0.05).
	DropLimitFrac *float64 `json:"dropLimitFrac,omitempty"`

	// IncludeSegments echoes the per-segment verdict stream in the
	// Result (capped at maxSegmentsOut on the synchronous path).
	IncludeSegments bool `json:"includeSegments,omitempty"`
}

// Check is a compiled, validated chipcheck ready to solve. Compile
// does no numeric work, so it is safe to call on untrusted input.
type Check struct {
	Grid  *powergrid.Grid
	Loads []powergrid.Load

	metal        *material.Metal
	transport    em.TransportParams
	hasTransport bool

	j0        float64 // A/m²
	tref      float64 // K
	tol       float64 // K
	maxIter   int
	sheetCond float64 // W/K per square
	sink      float64 // W/(m²·K)
	dropLimit float64 // V

	includeSegments bool

	key string // geometryKey
}

// geometryKey is the exact key of the inputs an Operator depends on:
// the technology (its name, which starts with the node's, and its
// gap-fill and metal names), the strap levels, the mesh size, the
// pitches, width multiple, reference temperature, sheet and sink
// conductances by their float bits, and the pad set.
// Pads are keyed as a set, ascending node indices each as its gap from
// the last, so the order of a request's pad list does not matter.
// Strings are length-prefixed and the pad set comes last, so distinct
// inputs cannot collide.
func geometryKey(g *powergrid.Grid, tref, sheetCond, sink float64, isPad []bool) string {
	b := make([]byte, 0, 96+len(g.Pads))
	for _, s := range []string{g.Tech.Name, g.Tech.Gap.Name, g.Tech.Metal.Name} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	for _, v := range []int{g.HLevel, g.VLevel, g.Nx, g.Ny} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, f := range []float64{g.PitchX, g.PitchY, g.WidthMultiple, tref, sheetCond, sink} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	last := -1
	for i, pad := range isPad {
		if pad {
			b = binary.AppendUvarint(b, uint64(i-last))
			last = i
		}
	}
	return string(b)
}

func orVal(p *float64, def float64) float64 {
	if p == nil {
		return def
	}
	return *p
}

func finitePos(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s %g (want > 0, finite)", ErrInvalid, name, v)
	}
	return nil
}

// Compile validates the request and builds a Check. It allocates O(Nx·Ny)
// at most and performs no solves.
func Compile(p Params) (*Check, error) {
	tech, err := ntrs.Select(p.Node, p.Gap, p.Metal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if p.Nx < 2 || p.Ny < 2 {
		return nil, fmt.Errorf("%w: mesh %dx%d too small (want ≥ 2x2)", ErrInvalid, p.Nx, p.Ny)
	}
	if p.Nx > MaxNodes || p.Ny > MaxNodes || p.Nx*p.Ny > MaxNodes {
		return nil, fmt.Errorf("%w: mesh %dx%d exceeds %d nodes", ErrInvalid, p.Nx, p.Ny, MaxNodes)
	}
	hl, vl := p.HLevel, p.VLevel
	if hl == 0 {
		hl = tech.NumLevels() - 1
	}
	if vl == 0 {
		vl = tech.NumLevels()
	}
	pitchX := orVal(p.PitchXUm, 200)
	pitchY := orVal(p.PitchYUm, 200)
	wm := orVal(p.WidthMultiple, 4)
	if err := finitePos("pitchXUm", pitchX); err != nil {
		return nil, err
	}
	if err := finitePos("pitchYUm", pitchY); err != nil {
		return nil, err
	}
	if err := finitePos("widthMultiple", wm); err != nil {
		return nil, err
	}
	g := &powergrid.Grid{
		Tech:          tech,
		HLevel:        hl,
		VLevel:        vl,
		Nx:            p.Nx,
		Ny:            p.Ny,
		PitchX:        phys.Microns(pitchX),
		PitchY:        phys.Microns(pitchY),
		WidthMultiple: wm,
	}
	isPad := make([]bool, p.Nx*p.Ny)
	addPad := func(n powergrid.Node) {
		if idx := n.J*p.Nx + n.I; !isPad[idx] {
			isPad[idx] = true
			g.Pads = append(g.Pads, n)
		}
	}
	if p.PadRing {
		// Boundary ring, deterministic order: top and bottom rows
		// left-to-right, then left and right columns top-to-bottom.
		for i := 0; i < p.Nx; i++ {
			addPad(powergrid.Node{I: i, J: 0})
			addPad(powergrid.Node{I: i, J: p.Ny - 1})
		}
		for j := 0; j < p.Ny; j++ {
			addPad(powergrid.Node{I: 0, J: j})
			addPad(powergrid.Node{I: p.Nx - 1, J: j})
		}
	}
	for _, pr := range p.Pads {
		if pr.I < 0 || pr.I >= p.Nx || pr.J < 0 || pr.J >= p.Ny {
			return nil, fmt.Errorf("%w: pad (%d,%d) outside %dx%d mesh", ErrInvalid, pr.I, pr.J, p.Nx, p.Ny)
		}
		addPad(powergrid.Node{I: pr.I, J: pr.J})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}

	c := &Check{Grid: g, metal: tech.Metal, includeSegments: p.IncludeSegments}
	if tp, err := em.TransportFor(tech.Metal); err == nil {
		c.transport, c.hasTransport = tp, true
	}

	if len(p.Loads) > p.Nx*p.Ny {
		return nil, fmt.Errorf("%w: %d loads for %d nodes", ErrInvalid, len(p.Loads), p.Nx*p.Ny)
	}
	for _, l := range p.Loads {
		if l.I < 0 || l.I >= p.Nx || l.J < 0 || l.J >= p.Ny {
			return nil, fmt.Errorf("%w: load (%d,%d) outside %dx%d mesh", ErrInvalid, l.I, l.J, p.Nx, p.Ny)
		}
		if l.Amps < 0 || math.IsNaN(l.Amps) || math.IsInf(l.Amps, 0) {
			return nil, fmt.Errorf("%w: load %g A at (%d,%d)", ErrInvalid, l.Amps, l.I, l.J)
		}
		c.Loads = append(c.Loads, powergrid.Load{Node: powergrid.Node{I: l.I, J: l.J}, Current: l.Amps})
	}
	if p.UniformLoadA != nil {
		total := *p.UniformLoadA
		if total < 0 || math.IsNaN(total) || math.IsInf(total, 0) {
			return nil, fmt.Errorf("%w: uniform load %g A", ErrInvalid, total)
		}
		free := 0
		for _, pad := range isPad {
			if !pad {
				free++
			}
		}
		if free == 0 {
			return nil, fmt.Errorf("%w: uniform load with every node a pad", ErrInvalid)
		}
		per := total / float64(free)
		for j := 0; j < p.Ny; j++ {
			for i := 0; i < p.Nx; i++ {
				if !isPad[j*p.Nx+i] {
					c.Loads = append(c.Loads, powergrid.Load{Node: powergrid.Node{I: i, J: j}, Current: per})
				}
			}
		}
	}

	c.j0 = phys.MAPerCm2(orVal(p.J0MA, 1.8))
	if err := finitePos("j0MA", c.j0); err != nil {
		return nil, err
	}
	c.tref = phys.CToK(orVal(p.TrefC, 100))
	if err := finitePos("trefC (in kelvin)", c.tref); err != nil {
		return nil, err
	}
	c.maxIter = 25
	if p.MaxIter != nil {
		c.maxIter = *p.MaxIter
	}
	if c.maxIter < 1 || c.maxIter > MaxSolveIter {
		return nil, fmt.Errorf("%w: maxIter %d (want 1..%d)", ErrInvalid, c.maxIter, MaxSolveIter)
	}
	c.tol = orVal(p.TolK, 0.01)
	if err := finitePos("tolK", c.tol); err != nil {
		return nil, err
	}
	c.sheetCond = orVal(p.SheetCondWPerK, 0.015)
	if c.sheetCond < 0 || math.IsNaN(c.sheetCond) || math.IsInf(c.sheetCond, 0) {
		return nil, fmt.Errorf("%w: sheetCondWPerK %g", ErrInvalid, c.sheetCond)
	}
	c.sink = orVal(p.SinkWPerM2K, 1e4)
	if err := finitePos("sinkWPerM2K", c.sink); err != nil {
		return nil, err
	}
	frac := orVal(p.DropLimitFrac, 0.05)
	if !(frac > 0 && frac <= 1) {
		return nil, fmt.Errorf("%w: dropLimitFrac %g (want in (0,1])", ErrInvalid, frac)
	}
	c.dropLimit = frac * tech.Vdd
	c.key = geometryKey(g, c.tref, c.sheetCond, c.sink, isPad)
	return c, nil
}

// Key returns the check's geometry key: two checks with one key share
// an Operator, whatever their loads, budgets and loop controls.
func (c *Check) Key() string { return c.key }

// NumBranches returns the grid's branch (segment) count — the verdict
// index space tiles are cut from.
func (c *Check) NumBranches() int {
	return 2*c.Grid.Nx*c.Grid.Ny - c.Grid.Nx - c.Grid.Ny
}

// Field is the converged (or iteration-capped) coupled solution.
type Field struct {
	// Sol is the final IR-drop solution, solved at the final branch
	// temperatures.
	Sol *powergrid.Solution
	// DT is the per-tile substrate temperature rise, K (row-major,
	// stride Nx).
	DT []float64
	// Temps is the per-branch metal temperature, K, in branch order.
	Temps []float64
	// Residuals[i] is max|ΔT_i − ΔT_{i−1}| after coupled pass i — the
	// fixed-point contraction trace (monotone non-increasing for a
	// converging check).
	Residuals []float64
	// Converged reports whether the final residual reached TolK within
	// MaxIter passes.
	Converged bool
	// Iterations is the number of coupled passes run.
	Iterations int
}

// NonConvergence is the structured error Solve returns when the
// electrothermal fixed point fails to contract to TolK within MaxIter
// passes (thermal runaway, or a tolerance the grid cannot meet). It
// wraps mathx.ErrNumeric — the serving layer classifies it as a
// numeric failure (HTTP 422) and the job supervisor quarantines chunks
// that carry it — and ships the fully assembled non-converged field
// (final consistency solve included) for diagnostics and reporting.
type NonConvergence struct {
	Field  *Field
	Resid  float64 // final fixed-point residual, K
	Tol    float64 // the TolK target it missed
	Passes int     // coupled passes run (the MaxIter cap)
}

func (e *NonConvergence) Error() string {
	return fmt.Sprintf("chipcheck: %s: fixed point did not converge within %d passes: residual %g K > tol %g K",
		mathx.ErrNumeric, e.Passes, e.Resid, e.Tol)
}

// Unwrap ties NonConvergence into the errors.Is chain as ErrNumeric.
func (e *NonConvergence) Unwrap() error { return mathx.ErrNumeric }

// Operator is the geometry-only half of a check: the grid's nodal mesh
// (branch topology and geometry, the conductance pattern with its slot
// and pad tables) with the IR matrix factored at the first pass's
// temperatures — every branch at Tref, so its values depend only on
// geometry, metal and Tref — and the factored sheet conduction, which
// is temperature-independent. It holds no per-solve state and is
// read-only once built, so it is safe for concurrent use: checks that
// share its Key may each run SolveWith on it at once, and get the bytes
// Solve would.
type Operator struct {
	key   string
	mesh  *powergrid.Mesh
	sheet *fdm.SheetSolver
}

// NewOperator assembles, orders and factors the check's geometry-only
// matrices.
func (c *Check) NewOperator() (*Operator, error) {
	mesh, err := c.Grid.NewMesh(c.tref)
	if err != nil {
		return nil, err
	}
	sheet, err := fdm.NewSheetSolver(c.Grid.Nx, c.Grid.Ny, c.Grid.PitchX, c.Grid.PitchY, c.sheetCond, c.sink)
	if err != nil {
		return nil, err
	}
	return &Operator{key: c.key, mesh: mesh, sheet: sheet}, nil
}

// Bytes estimates the memory the operator holds.
func (op *Operator) Bytes() int { return len(op.key) + op.mesh.Bytes() + op.sheet.Bytes() }

// Solve runs the coupled IR-drop ↔ thermal-map fixed point on an
// operator of its own (see SolveWith).
func (c *Check) Solve(ctx context.Context) (*Field, error) {
	op, err := c.NewOperator()
	if err != nil {
		return nil, err
	}
	return c.SolveWith(ctx, op)
}

// SolveWith runs the coupled IR-drop ↔ thermal-map fixed point on op,
// an operator built by a check with c's Key. It is deterministic at any
// mathx worker count; ctx is checked before every linear solve. A fixed
// point that hits the MaxIter cap without reaching TolK returns a
// *NonConvergence error (errors.As recovers the partially converged
// field). Every slice of the field is the solve's own.
func (c *Check) SolveWith(ctx context.Context, op *Operator) (*Field, error) {
	if op.key != c.key {
		return nil, fmt.Errorf("%w: operator built for another grid geometry", ErrInvalid)
	}
	nodal, err := op.mesh.NewNodal(c.Loads)
	if err != nil {
		return nil, err
	}
	nb := op.mesh.NumBranches()
	n := c.Grid.Nx * c.Grid.Ny
	temps := make([]float64, nb)
	for i := range temps {
		temps[i] = c.tref
	}
	dt := make([]float64, n)
	ndt := make([]float64, n)
	power := make([]float64, n)
	var scratch mathx.CGScratch // the sheet solves' work vectors

	f := &Field{}
	var sol *powergrid.Solution
	for pass := 0; pass < c.maxIter; pass++ {
		// Reusing the Solution keeps the fixed-point loop allocation-free
		// per pass; only this loop reads it before the next overwrite.
		sol, err = nodal.SolveInto(ctx, temps, sol)
		if err != nil {
			return nil, err
		}
		f.Sol = sol
		f.Iterations = pass + 1
		// Joule power per branch at this pass's temperatures, split half
		// to each endpoint tile. Serial fixed-order accumulation keeps
		// the result bit-identical regardless of worker count.
		for i := range power {
			power[i] = 0
		}
		for bi := 0; bi < nb; bi++ {
			from, to, length, area := op.mesh.Branch(bi)
			rho := c.metal.Resistivity(temps[bi])
			p := sol.Branches[bi].Current * sol.Branches[bi].Current * rho * length / area
			power[from] += p / 2
			power[to] += p / 2
		}
		if err := op.sheet.SolveWith(power, ndt, &scratch); err != nil {
			return nil, err
		}
		resid := 0.0
		for i := range ndt {
			if d := math.Abs(ndt[i] - dt[i]); d > resid {
				resid = d
			}
		}
		f.Residuals = append(f.Residuals, resid)
		copy(dt, ndt)
		for bi := 0; bi < nb; bi++ {
			from, to, _, _ := op.mesh.Branch(bi)
			temps[bi] = c.tref + 0.5*(dt[from]+dt[to])
		}
		if resid <= c.tol {
			f.Converged = true
			break
		}
	}
	// One consistency pass so the reported currents are solved at the
	// reported (final) temperatures, converged or not.
	sol, err = nodal.SolveInto(ctx, temps, sol)
	if err != nil {
		return nil, err
	}
	f.Sol = sol
	f.Sol.Grid = c.Grid // the check's own grid, not the operator's
	f.DT = dt
	f.Temps = temps
	f.Sol.HottestTm = c.tref
	for _, t := range temps {
		if t > f.Sol.HottestTm {
			f.Sol.HottestTm = t
		}
	}
	if err := mathx.CheckFinite("tile temperature field", dt); err != nil {
		mathx.RecordNumericFailure()
		return nil, fmt.Errorf("chipcheck: %w", err)
	}
	if !f.Converged {
		// The fixed point hit the iteration cap without contracting to
		// TolK — thermal runaway or a tolerance the grid cannot meet.
		// Surfaced as a structured error (wrapping mathx.ErrNumeric)
		// rather than a silently non-converged field; the solved field
		// rides along for diagnostics and reporting.
		mathx.RecordNumericFailure()
		resid := 0.0
		if len(f.Residuals) > 0 {
			resid = f.Residuals[len(f.Residuals)-1]
		}
		return nil, &NonConvergence{Field: f, Resid: resid, Tol: c.tol, Passes: f.Iterations}
	}
	return f, nil
}
