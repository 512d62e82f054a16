package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/core"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/powergrid"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/server"
)

// Direct computations: the answers the daemon must give, computed by
// calling each layer's public functions in this process. They are the
// correctness reference for the sampled replies, and in the traced run
// their spans are the per-layer timings.

// decodeStrict decodes a reply into its wire type, rejecting unknown
// fields. JSON has no NaN or Inf, and an out-of-range number fails to
// decode, so a body that decodes carries only finite numbers.
func decodeStrict(body []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("body is not a valid reply: %w", err)
	}
	return nil
}

// sameJSON compares a reply body with the JSON encoding of want, field
// by field after canonicalising both.
func sameJSON(got []byte, want any) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(wb, &b); err != nil {
		return err
	}
	ca, _ := json.Marshal(a)
	cb, _ := json.Marshal(b)
	if !bytes.Equal(ca, cb) {
		return fmt.Errorf("body differs from the direct computation:\n got  %.300s\n want %.300s", ca, cb)
	}
	return nil
}

func techFor(node string) *ntrs.Technology {
	for _, n := range nodes {
		if n.name == node {
			return n.tech()
		}
	}
	return ntrs.N250()
}

// rulesSpec is the daemon's default rules spec: j0 1.8 MA/cm², 100 °C.
func rulesSpec() (rules.Spec, error) {
	spec := rules.Spec{J0: phys.MAPerCm2(1.8), Tref: phys.CToK(100)}
	return spec, spec.Validate()
}

// solveProblem is the self-consistent solve behind a rules key, on the
// daemon's default 2000 µm line.
func solveProblem(k ruleKey, spec rules.Spec) (core.Problem, error) {
	line, err := techFor(k.Node).Line(k.Level, phys.Microns(2000))
	if err != nil {
		return core.Problem{}, err
	}
	return core.Problem{Line: line, Model: *spec.Model, R: k.Duty, J0: spec.J0, Tref: spec.Tref}, nil
}

// rulesAnswer is the solve and deck row of one rules key.
type rulesAnswer struct {
	solve server.SolveJSON
	rule  server.LevelRuleJSON
}

// directRules answers k with core.SolveCtx and rules.GenerateLevelCtx,
// converted to report units the way the daemon converts them.
func directRules(ctx context.Context, k ruleKey) (rulesAnswer, error) {
	spec, err := rulesSpec()
	if err != nil {
		return rulesAnswer{}, err
	}
	p, err := solveProblem(k, spec)
	if err != nil {
		return rulesAnswer{}, err
	}
	sol, err := core.SolveCtx(ctx, p)
	if err != nil {
		return rulesAnswer{}, err
	}
	r, err := rules.GenerateLevelCtx(ctx, techFor(k.Node), k.Level, spec)
	if err != nil {
		return rulesAnswer{}, err
	}
	return rulesAnswer{
		solve: server.SolveJSON{
			TmC:           phys.KToC(sol.Tm),
			DeltaT:        sol.DeltaT,
			JpeakMA:       phys.ToMAPerCm2(sol.Jpeak),
			JrmsMA:        phys.ToMAPerCm2(sol.Jrms),
			JavgMA:        phys.ToMAPerCm2(sol.Javg),
			EMOnlyJpeakMA: phys.ToMAPerCm2(sol.EMOnlyJpeak),
			Derating:      sol.DeratingVsNaive,
		},
		rule: server.LevelRuleJSON{
			Level:                r.Level,
			Class:                r.Class.String(),
			SignalJpeakMA:        phys.ToMAPerCm2(r.SignalJpeak),
			SignalJrmsMA:         phys.ToMAPerCm2(r.SignalJrms),
			SignalJavgMA:         phys.ToMAPerCm2(r.SignalJavg),
			SignalTmC:            phys.KToC(r.SignalTm),
			PowerJMA:             phys.ToMAPerCm2(r.PowerJ),
			PowerTmC:             phys.KToC(r.PowerTm),
			HealingLengthUm:      phys.ToMicrons(r.HealingLength),
			ThermallyLongAboveUm: phys.ToMicrons(r.ThermallyLongAbove),
			BlechImmortalBelowUm: phys.ToMicrons(r.BlechImmortalBelow),
			ESDWidthNoDamageUm:   phys.ToMicrons(r.ESDWidthNoDamage),
			ESDWidthNoOpenUm:     phys.ToMicrons(r.ESDWidthNoOpen),
		},
	}, nil
}

// checkRulesReply compares one rules reply with the direct answer, bit
// for bit.
func checkRulesReply(k ruleKey, got *server.RulesResponse, want rulesAnswer) error {
	if got.Node != k.Node || got.Level != k.Level || got.DutyCycle != k.Duty {
		return fmt.Errorf("reply for %+v echoes node %q level %d duty %g", k, got.Node, got.Level, got.DutyCycle)
	}
	if got.Solve != want.solve {
		return fmt.Errorf("key %+v: solve %+v, direct core.SolveCtx %+v", k, got.Solve, want.solve)
	}
	if got.Rule != want.rule {
		return fmt.Errorf("key %+v: rule %+v, direct rules.GenerateLevelCtx %+v", k, got.Rule, want.rule)
	}
	return nil
}

// serialRunner is a netcheck.ForEachFunc that runs the segments in
// order on the calling goroutine.
func serialRunner(ctx context.Context, n int, fn func(context.Context, int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// directNetcheck checks a design with a freshly generated deck and
// netcheck.CheckWith on a serial runner. Only the CheckWith call is
// the netcheck span.
func directNetcheck(ctx context.Context, tr *tracer, df *netcheck.DesignFile) (*netcheck.Report, error) {
	tech, err := df.Tech()
	if err != nil {
		return nil, err
	}
	deck, err := rules.GenerateCtx(ctx, tech, df.Spec())
	if err != nil {
		return nil, err
	}
	segs, err := df.MaterializeSegments(deck.Tech)
	if err != nil {
		return nil, err
	}
	var rep *netcheck.Report
	err = tr.timed("direct.netcheck.CheckWith", func() error {
		rep, err = netcheck.CheckWith(ctx, netcheck.Config{Deck: deck}, segs, serialRunner)
		return err
	})
	return rep, err
}

// checkNetcheckReply compares verdicts and margins with the direct
// report.
func checkNetcheckReply(got *server.NetcheckResponse, want *netcheck.Report) error {
	if got.Worst != want.Worst().String() {
		return fmt.Errorf("worst verdict %s, direct %s", got.Worst, want.Worst())
	}
	if len(got.ByNet) != len(want.ByNet) {
		return fmt.Errorf("%d nets, direct %d", len(got.ByNet), len(want.ByNet))
	}
	for net, v := range want.ByNet {
		if got.ByNet[net] != v.String() {
			return fmt.Errorf("net %s verdict %s, direct %s", net, got.ByNet[net], v)
		}
	}
	if len(got.Findings) != len(want.Findings) {
		return fmt.Errorf("%d findings, direct %d", len(got.Findings), len(want.Findings))
	}
	for i, f := range want.Findings {
		g := got.Findings[i]
		if g.Net != f.Segment.Net || g.Segment != f.Segment.Name || g.Verdict != f.Verdict.String() || g.Margin != f.Margin {
			return fmt.Errorf("finding %d: %s/%s %s margin %g, direct %s/%s %s margin %g",
				i, g.Net, g.Segment, g.Verdict, g.Margin, f.Segment.Net, f.Segment.Name, f.Verdict, f.Margin)
		}
	}
	return nil
}

// directChipcheck runs Compile, Solve, Verdicts and Report as the
// daemon does. class names the grid ("small", "medium", "large") in the
// solve span. With kernels set it also times the grid's nodal set-up
// and solve and its sheet-solver factor and solve.
func directChipcheck(ctx context.Context, tr *tracer, class string, p chipcheck.Params, kernels bool) (*chipcheck.Result, error) {
	var (
		c   *chipcheck.Check
		f   *chipcheck.Field
		vs  []chipcheck.Verdict
		res *chipcheck.Result
		err error
	)
	if err = tr.timed("direct.chipcheck.Compile", func() error { c, err = chipcheck.Compile(p); return err }); err != nil {
		return nil, err
	}
	if err = tr.timed("direct.chipcheck.Solve."+class, func() error { f, err = c.Solve(ctx); return err }); err != nil {
		return nil, err
	}
	if err = tr.timed("direct.chipcheck.Verdicts", func() error { vs, err = c.Verdicts(f, 0, c.NumBranches()); return err }); err != nil {
		return nil, err
	}
	if err = tr.timed("direct.chipcheck.Report", func() error { res, err = c.Report(f, vs); return err }); err != nil {
		return nil, err
	}
	if kernels {
		if err := gridKernels(ctx, tr, c, f, p); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gridKernels times one powergrid nodal set-up and solve at the solved
// branch temperatures, and one fdm sheet-solver factor and solve, on
// the grid of c.
func gridKernels(ctx context.Context, tr *tracer, c *chipcheck.Check, f *chipcheck.Field, p chipcheck.Params) error {
	g := c.Grid
	var (
		n     *powergrid.Nodal
		sheet *fdm.SheetSolver
		err   error
	)
	if err := tr.timed("direct.powergrid.NewNodal", func() error { n, err = g.NewNodal(c.Loads); return err }); err != nil {
		return err
	}
	if err := tr.timed("direct.powergrid.SolveInto", func() error { _, err = n.SolveInto(ctx, f.Temps, nil); return err }); err != nil {
		return err
	}
	cond, sink := 0.015, 1e4 // the chipcheck defaults
	if p.SheetCondWPerK != nil {
		cond = *p.SheetCondWPerK
	}
	if p.SinkWPerM2K != nil {
		sink = *p.SinkWPerM2K
	}
	if err := tr.timed("direct.fdm.NewSheetSolver", func() error {
		sheet, err = fdm.NewSheetSolver(g.Nx, g.Ny, g.PitchX, g.PitchY, cond, sink)
		return err
	}); err != nil {
		return err
	}
	power := make([]float64, g.Nx*g.Ny)
	for i := range power {
		power[i] = 1e-3
	}
	out := make([]float64, len(power))
	return tr.timed("direct.fdm.SheetSolver.Solve", func() error { return sheet.Solve(power, out) })
}

// lifetimeReplay accumulates what the lifetime replays measured that
// spans do not carry.
type lifetimeReplay struct {
	samples     int
	sketchBytes []float64
}

// directLifetime samples p in lifetimeChunk ranges, each into its own
// sketch, merges them and builds the report: the lifetime job's plan,
// which the merge-order invariance makes equal to the synchronous
// route's single pass.
func directLifetime(tr *tracer, p lifetime.Params, acc *lifetimeReplay) (*lifetime.Report, error) {
	m, err := lifetime.Compile(p)
	if err != nil {
		return nil, err
	}
	total := lifetime.NewSketch()
	for lo := 0; lo < m.Samples; lo += lifetimeChunk {
		hi := min(lo+lifetimeChunk, m.Samples)
		sk := lifetime.NewSketch()
		if err := tr.timed("direct.lifetime.SampleRange", func() error { return m.SampleRange(sk, lo, hi) }); err != nil {
			return nil, err
		}
		if err := tr.timed("direct.mathx.QuantileSketch.Merge", func() error { return total.Merge(sk) }); err != nil {
			return nil, err
		}
	}
	acc.samples += m.Samples
	var blob []byte
	if err := tr.timed("direct.mathx.QuantileSketch.MarshalBinary", func() error { blob, err = total.MarshalBinary(); return err }); err != nil {
		return nil, err
	}
	acc.sketchBytes = append(acc.sketchBytes, float64(len(blob)))
	var rep *lifetime.Report
	err = tr.timed("direct.lifetime.BuildReport", func() error { rep, err = m.BuildReport(total); return err })
	return rep, err
}

// mcResult mirrors the montecarlo job's result document.
type mcResult struct {
	Samples int                `json:"samples"`
	Seed    int64              `json:"seed"`
	Levels  []jobs.MCLevelJSON `json:"levels"`
}

// directMonteCarlo evaluates a montecarlo job's params in one pass over
// every sample.
func directMonteCarlo(p *jobs.MonteCarloParams) (*mcResult, error) {
	tech := techFor(p.Node)
	spec := rules.Spec{SignalDutyCycle: 0.1, J0: phys.MAPerCm2(1.8), Tref: phys.CToK(100)}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	v := rules.Variation{Width: p.WidthSigma, Thick: p.ThickSigma, ILD: p.ILDSigma, Kd: p.KdSigma, Samples: p.Samples, Seed: p.Seed, Workers: 1}
	rows, err := rules.MonteCarloRows(tech, spec, v, 0, p.Samples)
	if err != nil {
		return nil, err
	}
	res, err := rules.MonteCarloFromRows(tech, spec, v, rows)
	if err != nil {
		return nil, err
	}
	out := &mcResult{Samples: p.Samples, Seed: p.Seed}
	for _, r := range res {
		out.Levels = append(out.Levels, jobs.MCLevelJSON{
			Level:     r.Level,
			P1MA:      phys.ToMAPerCm2(r.P1),
			P50MA:     phys.ToMAPerCm2(r.P50),
			P99MA:     phys.ToMAPerCm2(r.P99),
			NominalMA: phys.ToMAPerCm2(r.Nominal),
			GuardBand: r.GuardBand,
		})
	}
	return out, nil
}

// wchar reads the bytes this process has passed to write calls, from
// /proc/self/io.
func wchar() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}
