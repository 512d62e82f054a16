package jobs

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"

	"dsmtherm/internal/core"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
)

// Task is a job's compute plan: a fixed grid of chunks plus a merge
// step. The contract that makes jobs resumable and bit-deterministic:
//
//   - Chunks() depends only on the validated params (never on worker
//     count or wall clock), so a restarted manager rebuilds the same
//     grid from the journaled params.
//   - Run(ctx, c) is a pure function of (params, c) — no state may leak
//     between chunks — and returns an opaque blob (gob, internal to the
//     task type) that the journal persists verbatim.
//   - Finalize merges the blobs in chunk-index order into the job's
//     JSON result; it must be deterministic in its inputs.
type Task interface {
	Chunks() int
	Run(ctx context.Context, chunk int) ([]byte, error)
	Finalize(ctx context.Context, chunks [][]byte) (json.RawMessage, error)
}

// newTask validates params and builds the runner for a job type. Every
// validation failure wraps ErrInvalid (or ErrUnknownType); nothing here
// computes.
func newTask(typ string, params json.RawMessage) (Task, error) {
	switch typ {
	case TypeMonteCarlo:
		return newMonteCarloTask(params)
	case TypeSweep:
		return newSweepTask(params)
	case TypeCoupling:
		return newCouplingTask(params)
	case TypeChipcheck:
		return newChipcheckTask(params)
	case TypeLifetime:
		return newLifetimeTask(params)
	default:
		return nil, fmt.Errorf("%w: %q (want %q, %q, %q, %q or %q)",
			ErrUnknownType, typ, TypeMonteCarlo, TypeSweep, TypeCoupling, TypeChipcheck, TypeLifetime)
	}
}

// Job type names.
const (
	TypeMonteCarlo = "montecarlo"
	TypeSweep      = "sweep"
	TypeCoupling   = "coupling"
)

// decodeParams strictly decodes a params document; unknown fields are a
// client error, same policy as the synchronous API.
func decodeParams(params json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: params: %v", ErrInvalid, err)
	}
	return nil
}

// orVal resolves a pointer-or-presence field (absent → def, present →
// the client's value, zeros included — same convention as the
// synchronous API).
func orVal(p *float64, def float64) float64 {
	if p == nil {
		return def
	}
	return *p
}

// gobBlob / ungobBlob are the chunk-blob codec. Blobs are internal to a
// task type — produced by Run, persisted opaquely by the journal,
// consumed by Finalize — so gob's self-describing framing is exactly
// right and no cross-version schema is promised.
func gobBlob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("jobs: chunk encode: %w", err)
	}
	return buf.Bytes(), nil
}

func ungobBlob(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("jobs: chunk decode: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// Monte Carlo

// MonteCarloParams is the "montecarlo" job params document: a large
// guard-banding run of rules.MonteCarlo, chunked by sample ranges.
type MonteCarloParams struct {
	Node  string `json:"node,omitempty"`
	Gap   string `json:"gap,omitempty"`
	Metal string `json:"metal,omitempty"`

	// Samples is the Monte Carlo size (10 … 100000; default 200).
	Samples int `json:"samples,omitempty"`
	// Seed selects the reproducible RNG stream (default 1).
	Seed int64 `json:"seed,omitempty"`

	// WidthSigma etc. are the relative 1-σ lognormal process spreads.
	WidthSigma float64 `json:"widthSigma,omitempty"`
	ThickSigma float64 `json:"thickSigma,omitempty"`
	ILDSigma   float64 `json:"ildSigma,omitempty"`
	KdSigma    float64 `json:"kdSigma,omitempty"`

	DutyCycle *float64 `json:"dutyCycle,omitempty"` // default 0.1
	J0MA      *float64 `json:"j0MA,omitempty"`      // default 1.8
	TrefC     *float64 `json:"trefC,omitempty"`     // default 100
}

// mcChunkSamples is the Monte Carlo chunk granularity, sized by work:
// at ≈3.6 µs a sample, 1024 samples are ≈4 ms of kernel per chunk,
// against ≈0.15 ms for the chunk's journal append and fsync and ≈75 µs
// of fixed gob cost (a fresh encoder and decoder per blob), so the
// per-chunk overhead is a few percent of the job while a crash or a
// cancel still loses at most a few ms. It is part of the determinism
// story only through the journal (chunk boundaries are
// params-independent), so retuning it between releases only resets
// in-flight journals (chunk-count mismatch → progress reset), never
// results. It stays a power of two: two distinct powers of two differ
// at least twofold, so a job spanning more than one chunk on either
// grid has a different chunk count on the other, and a one-chunk job
// has the same single chunk on both.
const mcChunkSamples = 1024

// mcMaxSamples bounds one job's total work (≈0.36 s of kernel at the
// measured per-sample cost).
const mcMaxSamples = 100000

type monteCarloTask struct {
	tech *ntrs.Technology
	spec rules.Spec
	v    rules.Variation
}

func newMonteCarloTask(params json.RawMessage) (Task, error) {
	var p MonteCarloParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if p.Samples > mcMaxSamples {
		return nil, fmt.Errorf("%w: samples %d exceeds limit %d", ErrInvalid, p.Samples, mcMaxSamples)
	}
	tech, err := ntrs.Select(p.Node, p.Gap, p.Metal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	spec := rules.Spec{
		SignalDutyCycle: orVal(p.DutyCycle, 0.1),
		J0:              phys.MAPerCm2(orVal(p.J0MA, 1.8)),
		Tref:            phys.CToK(orVal(p.TrefC, 100)),
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	v := rules.Variation{
		Width: p.WidthSigma, Thick: p.ThickSigma, ILD: p.ILDSigma, Kd: p.KdSigma,
		Samples: p.Samples,
		Seed:    p.Seed,
		// Chunks are the unit of parallelism and of checkpointing; inside
		// a chunk the samples run serially so a job occupies exactly one
		// job-lane worker, never the shared kernel pool.
		Workers: 1,
	}
	// Default Samples/Seed here (mirroring the kernel's own defaults)
	// rather than per chunk: chunk count and the result document both
	// quote them, so they must be pinned at submit time.
	if v.Samples == 0 {
		v.Samples = 200
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	// Validate eagerly so submit rejects bad spreads with a 400 instead
	// of failing the job at its first chunk.
	if _, err := rules.MonteCarloRows(tech, spec, v, 0, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return &monteCarloTask{tech: tech, spec: spec, v: v}, nil
}

func (t *monteCarloTask) Chunks() int {
	return (t.v.Samples + mcChunkSamples - 1) / mcChunkSamples
}

// Run evaluates samples [c·mcChunkSamples, min((c+1)·mcChunkSamples,
// Samples)). Each sample's RNG substream is keyed on its absolute index
// (rules.MonteCarloRows), so the blob depends only on (params, c).
func (t *monteCarloTask) Run(ctx context.Context, chunk int) ([]byte, error) {
	lo := chunk * mcChunkSamples
	hi := min(lo+mcChunkSamples, t.v.Samples)
	rows, err := rules.MonteCarloRows(t.tech, t.spec, t.v, lo, hi)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return gobBlob(rows)
}

// MCLevelJSON is one level's percentile summary in report units
// (MA/cm²), the element of the "montecarlo" result document.
type MCLevelJSON struct {
	Level     int     `json:"level"`
	P1MA      float64 `json:"p1MA"`
	P50MA     float64 `json:"p50MA"`
	P99MA     float64 `json:"p99MA"`
	NominalMA float64 `json:"nominalMA"`
	GuardBand float64 `json:"guardBand"`
}

type mcResultJSON struct {
	Samples int           `json:"samples"`
	Seed    int64         `json:"seed"`
	Levels  []MCLevelJSON `json:"levels"`
}

func (t *monteCarloTask) Finalize(ctx context.Context, chunks [][]byte) (json.RawMessage, error) {
	jp := make([][]float64, 0, t.v.Samples)
	for c, blob := range chunks {
		var rows [][]float64
		if err := ungobBlob(blob, &rows); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		jp = append(jp, rows...)
	}
	res, err := rules.MonteCarloFromRows(t.tech, t.spec, t.v, jp)
	if err != nil {
		return nil, err
	}
	out := mcResultJSON{Samples: t.v.Samples, Seed: t.v.Seed}
	for _, r := range res {
		out.Levels = append(out.Levels, MCLevelJSON{
			Level:     r.Level,
			P1MA:      phys.ToMAPerCm2(r.P1),
			P50MA:     phys.ToMAPerCm2(r.P50),
			P99MA:     phys.ToMAPerCm2(r.P99),
			NominalMA: phys.ToMAPerCm2(r.Nominal),
			GuardBand: r.GuardBand,
		})
	}
	return json.Marshal(out)
}

// ---------------------------------------------------------------------
// Sweep grids

// SweepParams is the "sweep" job params document: a dense duty-cycle or
// J0 grid on one level — the Fig. 2/3 axes at resolutions too large for
// the synchronous /v1/sweep cap.
type SweepParams struct {
	Node  string `json:"node,omitempty"`
	Gap   string `json:"gap,omitempty"`
	Metal string `json:"metal,omitempty"`
	Level int    `json:"level"`

	// Axis is "dutyCycle" (default) or "j0".
	Axis string `json:"axis,omitempty"`
	// Values is the explicit grid (duty cycles, or j0 in MA/cm²). For
	// the dutyCycle axis an empty Values selects the log-spaced
	// 1e-4 … 1 grid of Points entries; the j0 axis requires Values.
	Values []float64 `json:"values,omitempty"`
	// Points sizes the default dutyCycle grid (2 … 10000; default 49).
	Points int `json:"points,omitempty"`

	DutyCycle *float64 `json:"dutyCycle,omitempty"` // fixed r for axis=j0 (default 0.1)
	J0MA      *float64 `json:"j0MA,omitempty"`      // fixed j0 for axis=dutyCycle (default 1.8)
	TrefC     *float64 `json:"trefC,omitempty"`     // default 100
	LengthUm  *float64 `json:"lengthUm,omitempty"`  // default 2000
}

const (
	sweepAxisDuty = "dutyCycle"
	sweepAxisJ0   = "j0"

	// sweepChunkPoints: a point is one ≈2 µs root search, so a chunk is
	// ≈2 ms of serial solves. A power of two, like mcChunkSamples and for
	// the same reason.
	sweepChunkPoints = 1024
	sweepMaxPoints   = 10000
)

type sweepTask struct {
	axis string
	prob core.Problem
	grid []float64
	// report echoes the request identity into the result document.
	node  string
	level int
}

func newSweepTask(params json.RawMessage) (Task, error) {
	var p SweepParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	axis := p.Axis
	if axis == "" {
		axis = sweepAxisDuty
	}
	if axis != sweepAxisDuty && axis != sweepAxisJ0 {
		return nil, fmt.Errorf("%w: unknown axis %q (want %q or %q)", ErrInvalid, p.Axis, sweepAxisDuty, sweepAxisJ0)
	}
	if len(p.Values) > sweepMaxPoints {
		return nil, fmt.Errorf("%w: %d grid points exceeds limit %d", ErrInvalid, len(p.Values), sweepMaxPoints)
	}
	grid := p.Values
	if len(grid) == 0 {
		if axis == sweepAxisJ0 {
			return nil, fmt.Errorf("%w: axis %q requires values", ErrInvalid, sweepAxisJ0)
		}
		points := p.Points
		if points == 0 {
			points = 49
		}
		if points < 2 || points > sweepMaxPoints {
			return nil, fmt.Errorf("%w: points %d outside [2, %d]", ErrInvalid, points, sweepMaxPoints)
		}
		grid = core.Fig2DutyCycles(points)
	}
	for i, x := range grid {
		if math.IsNaN(x) || x <= 0 {
			return nil, fmt.Errorf("%w: grid value %g at index %d", ErrInvalid, x, i)
		}
		if axis == sweepAxisDuty && x > 1 {
			return nil, fmt.Errorf("%w: duty cycle %g > 1 at index %d", ErrInvalid, x, i)
		}
	}
	if axis == sweepAxisJ0 {
		// Wire units are MA/cm²; the kernel wants A/m². Convert once so
		// chunk boundaries and problem values are fixed at submit time.
		conv := make([]float64, len(grid))
		for i, x := range grid {
			conv[i] = phys.MAPerCm2(x)
		}
		grid = conv
	}
	tech, err := ntrs.Select(p.Node, p.Gap, p.Metal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	line, err := tech.Line(p.Level, phys.Microns(orVal(p.LengthUm, 2000)))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	spec := rules.Spec{J0: phys.MAPerCm2(orVal(p.J0MA, 1.8)), Tref: phys.CToK(orVal(p.TrefC, 100))}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	node := p.Node
	if node == "" {
		node = ntrs.DefaultNode
	}
	return &sweepTask{
		axis: axis,
		prob: core.Problem{
			Line:  line,
			Model: *spec.Model,
			R:     orVal(p.DutyCycle, 0.1),
			J0:    spec.J0,
			Tref:  spec.Tref,
		},
		grid:  grid,
		node:  node,
		level: p.Level,
	}, nil
}

func (t *sweepTask) Chunks() int {
	return (len(t.grid) + sweepChunkPoints - 1) / sweepChunkPoints
}

// Run solves grid[c·sweepChunkPoints, …) serially on the calling job
// worker, so a sweep occupies one job-lane worker and never the shared
// kernel pool. Every point is an independent scalar root search,
// assembled in grid order, so the blob depends only on (params, c).
func (t *sweepTask) Run(ctx context.Context, chunk int) ([]byte, error) {
	lo := chunk * sweepChunkPoints
	hi := min(lo+sweepChunkPoints, len(t.grid))
	sweep := core.SweepDutyCycleCtx
	if t.axis == sweepAxisJ0 {
		sweep = core.SweepJ0Ctx
	}
	pts, err := sweep(ctx, t.prob, t.grid[lo:hi])
	if err != nil {
		return nil, err
	}
	return gobBlob(pts)
}

// SweepPointJSON is one grid point of the "sweep" result document, in
// report units (X is the axis value: duty cycle, or j0 in MA/cm²).
type SweepPointJSON struct {
	X             float64 `json:"x"`
	TmC           float64 `json:"tmC"`
	DeltaT        float64 `json:"deltaT"`
	JpeakMA       float64 `json:"jpeakMA"`
	JrmsMA        float64 `json:"jrmsMA"`
	JavgMA        float64 `json:"javgMA"`
	EMOnlyJpeakMA float64 `json:"emOnlyJpeakMA"`
	Derating      float64 `json:"derating"`
}

type sweepResultJSON struct {
	Node   string           `json:"node"`
	Level  int              `json:"level"`
	Axis   string           `json:"axis"`
	Points []SweepPointJSON `json:"points"`
}

func (t *sweepTask) Finalize(ctx context.Context, chunks [][]byte) (json.RawMessage, error) {
	out := sweepResultJSON{Node: t.node, Level: t.level, Axis: t.axis,
		Points: make([]SweepPointJSON, 0, len(t.grid))}
	for c, blob := range chunks {
		var pts []core.SweepPoint
		if err := ungobBlob(blob, &pts); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		for _, pt := range pts {
			x := pt.X
			if t.axis == sweepAxisJ0 {
				x = phys.ToMAPerCm2(x)
			}
			out.Points = append(out.Points, SweepPointJSON{
				X:             x,
				TmC:           phys.KToC(pt.Tm),
				DeltaT:        pt.DeltaT,
				JpeakMA:       phys.ToMAPerCm2(pt.Jpeak),
				JrmsMA:        phys.ToMAPerCm2(pt.Jrms),
				JavgMA:        phys.ToMAPerCm2(pt.Javg),
				EMOnlyJpeakMA: phys.ToMAPerCm2(pt.EMOnlyJpeak),
				Derating:      pt.DeratingVsNaive,
			})
		}
	}
	if len(out.Points) != len(t.grid) {
		return nil, fmt.Errorf("jobs: sweep assembled %d points, want %d", len(out.Points), len(t.grid))
	}
	return json.Marshal(out)
}

// ---------------------------------------------------------------------
// FDM coupling maps

// CouplingParams is the "coupling" job params document: the Fig. 8
// thermal coupling factor of a uniform interconnect array, mapped
// across a pitch grid. Each pitch is a full FDM mesh + banded-Cholesky
// batch solve — the most expensive chunk type, hence one pitch per
// chunk.
type CouplingParams struct {
	// Levels / LinesPerLevel size the array (defaults 4 and 3 — the
	// Fig. 8 quadruple-level structure).
	Levels        int    `json:"levels,omitempty"`
	LinesPerLevel int    `json:"linesPerLevel,omitempty"`
	Metal         string `json:"metal,omitempty"`      // default Cu
	Dielectric    string `json:"dielectric,omitempty"` // gap fill + ILD, default oxide

	// Geometry, µm. PitchesUm is the swept grid; the rest are fixed
	// (defaults are the Fig. 8 values).
	PitchesUm     []float64 `json:"pitchesUm"`
	WidthUm       *float64  `json:"widthUm,omitempty"`       // default 0.5
	ThickUm       *float64  `json:"thickUm,omitempty"`       // default 0.6
	ILDUm         *float64  `json:"ildUm,omitempty"`         // default 0.8
	PassivationUm *float64  `json:"passivationUm,omitempty"` // default 1.5

	// Observed selects the line whose coupling factor is reported
	// (defaults: top level, center line).
	ObservedLevel *int `json:"observedLevel,omitempty"`
	ObservedIndex *int `json:"observedIndex,omitempty"`
}

// couplingMaxPitches bounds one job at about 1.5 s of FDM solves (8–23
// ms a pitch at the default array, for pitches of 0.6–50 µm).
const couplingMaxPitches = 64

type couplingTask struct {
	p        CouplingParams
	metal    *material.Metal
	diel     *material.Dielectric
	observed fdm.LineRef
}

func newCouplingTask(params json.RawMessage) (Task, error) {
	var p CouplingParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if len(p.PitchesUm) == 0 {
		return nil, fmt.Errorf("%w: pitchesUm required", ErrInvalid)
	}
	if len(p.PitchesUm) > couplingMaxPitches {
		return nil, fmt.Errorf("%w: %d pitches exceeds limit %d", ErrInvalid, len(p.PitchesUm), couplingMaxPitches)
	}
	if p.Levels == 0 {
		p.Levels = 4
	}
	if p.LinesPerLevel == 0 {
		p.LinesPerLevel = 3
	}
	if p.Levels < 1 || p.Levels > 8 || p.LinesPerLevel < 1 || p.LinesPerLevel > 9 {
		return nil, fmt.Errorf("%w: array %d levels × %d lines outside [1,8]×[1,9]", ErrInvalid, p.Levels, p.LinesPerLevel)
	}
	metal := &material.Cu
	if p.Metal != "" {
		m, err := material.MetalByName(p.Metal)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		metal = m
	}
	diel := &material.Oxide
	if p.Dielectric != "" {
		d, err := material.DielectricByName(p.Dielectric)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		diel = d
	}
	w, th := orVal(p.WidthUm, 0.5), orVal(p.ThickUm, 0.6)
	ild, pass := orVal(p.ILDUm, 0.8), orVal(p.PassivationUm, 1.5)
	if w <= 0 || th <= 0 || ild <= 0 || pass <= 0 {
		return nil, fmt.Errorf("%w: non-positive geometry", ErrInvalid)
	}
	for i, pitch := range p.PitchesUm {
		if math.IsNaN(pitch) || pitch < w {
			return nil, fmt.Errorf("%w: pitch %g µm at index %d below width %g µm", ErrInvalid, pitch, i, w)
		}
	}
	obsLevel, obsIndex := p.Levels, p.LinesPerLevel/2
	if p.ObservedLevel != nil {
		obsLevel = *p.ObservedLevel
	}
	if p.ObservedIndex != nil {
		obsIndex = *p.ObservedIndex
	}
	if obsLevel < 1 || obsLevel > p.Levels || obsIndex < 0 || obsIndex >= p.LinesPerLevel {
		return nil, fmt.Errorf("%w: observed line (%d,%d) outside the array", ErrInvalid, obsLevel, obsIndex)
	}
	pw, pt2, pi, pp := w, th, ild, pass
	p.WidthUm, p.ThickUm, p.ILDUm, p.PassivationUm = &pw, &pt2, &pi, &pp
	return &couplingTask{
		p: p, metal: metal, diel: diel,
		observed: fdm.LineRef{Level: obsLevel, Index: obsIndex},
	}, nil
}

func (t *couplingTask) Chunks() int { return len(t.p.PitchesUm) }

// Run meshes the array at pitch chunk and solves the isolated/coupled
// impedance pair. The mesh, band ordering and solve are all
// deterministic functions of the geometry, so the blob depends only on
// (params, c).
func (t *couplingTask) Run(ctx context.Context, chunk int) ([]byte, error) {
	pitch := phys.Microns(t.p.PitchesUm[chunk])
	ar, err := geometry.UniformArray(t.p.Levels, t.p.LinesPerLevel, t.metal,
		phys.Microns(*t.p.WidthUm), phys.Microns(*t.p.ThickUm), pitch,
		phys.Microns(*t.p.ILDUm), t.diel, t.diel, phys.Microns(*t.p.PassivationUm))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	res, err := fdm.CouplingFactorFor(ar, t.observed, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return gobBlob(res)
}

// CouplingPointJSON is one pitch of the "coupling" result document.
type CouplingPointJSON struct {
	PitchUm float64 `json:"pitchUm"`
	// Isolated / Coupled are θ' with one line vs all lines heated, K·m/W.
	Isolated float64 `json:"isolatedImpedance"`
	Coupled  float64 `json:"coupledImpedance"`
	Factor   float64 `json:"factor"`
}

type couplingResultJSON struct {
	Levels        int                 `json:"levels"`
	LinesPerLevel int                 `json:"linesPerLevel"`
	ObservedLevel int                 `json:"observedLevel"`
	ObservedIndex int                 `json:"observedIndex"`
	Points        []CouplingPointJSON `json:"points"`
}

func (t *couplingTask) Finalize(ctx context.Context, chunks [][]byte) (json.RawMessage, error) {
	out := couplingResultJSON{
		Levels: t.p.Levels, LinesPerLevel: t.p.LinesPerLevel,
		ObservedLevel: t.observed.Level, ObservedIndex: t.observed.Index,
	}
	for c, blob := range chunks {
		var res fdm.CouplingResult
		if err := ungobBlob(blob, &res); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		out.Points = append(out.Points, CouplingPointJSON{
			PitchUm:  t.p.PitchesUm[c],
			Isolated: res.IsolatedImpedance,
			Coupled:  res.CoupledImpedance,
			Factor:   res.Factor,
		})
	}
	return json.Marshal(out)
}
