// Package netcheck is a static interconnect signoff checker in the mold
// of the paper's ref. [14] (Nagaraj et al., "A practical approach to
// static signal electromigration analysis", DAC 1998) — but with the
// paper's self-consistent rules behind it instead of fixed javg/jrms/jpeak
// limits.
//
// A design is described as a list of net segments (layer, width, length,
// current waveform statistics); the checker verifies every segment
// against a rules.Deck, reporting per-segment margins for the three
// current densities, the predicted metal temperature, EM-statistics
// deratings for multi-segment nets, and thermally-short credit where the
// segment qualifies. The output is the familiar signoff triage: PASS /
// MARGINAL / FAIL.
package netcheck

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dsmtherm/internal/core"
	"dsmtherm/internal/em"
	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/waveform"
)

// ErrInvalid reports an ill-formed segment or configuration.
var ErrInvalid = errors.New("netcheck: invalid parameters")

// Segment is one routed piece of a net on a single layer.
type Segment struct {
	// Net and Name identify the segment in reports.
	Net, Name string
	// Level is the metallization level.
	Level int
	// WidthMultiple scales the layer's minimum width (1 = minimum).
	WidthMultiple float64
	// Length is the routed length, m.
	Length float64
	// Current is the segment's current waveform (amperes). Its Peak,
	// RMS and AbsAvg drive the three checks; its effective duty cycle
	// feeds the self-consistent rule.
	Current waveform.Waveform
}

// Validate checks the segment.
func (s *Segment) Validate() error {
	if s.Net == "" || s.Name == "" {
		return fmt.Errorf("%w: unnamed segment", ErrInvalid)
	}
	if s.Level < 1 || s.WidthMultiple < 1 || s.Length <= 0 {
		return fmt.Errorf("%w: segment %s/%s geometry", ErrInvalid, s.Net, s.Name)
	}
	if s.Current == nil {
		return fmt.Errorf("%w: segment %s/%s has no current", ErrInvalid, s.Net, s.Name)
	}
	return nil
}

// Verdict classifies a check outcome.
type Verdict int

// Verdicts, best to worst.
const (
	Pass Verdict = iota
	Marginal
	Fail
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Marginal:
		return "MARGINAL"
	case Fail:
		return "FAIL"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarginalThreshold is the margin below which a passing segment is
// flagged for review.
const MarginalThreshold = 1.2

// Finding is the check result for one segment.
type Finding struct {
	Segment *Segment
	// Jpeak, Jrms, Javg are the segment's operating densities, A/m².
	Jpeak, Jrms, Javg float64
	// Reff is the waveform's effective duty cycle.
	Reff float64
	// Limit is the self-consistent jpeak limit at the segment's own
	// effective duty cycle, including the EM-statistics derating and any
	// thermally-short credit, A/m².
	Limit float64
	// Margin = Limit/Jpeak.
	Margin float64
	// Tm is the predicted metal temperature at the segment's actual RMS
	// density (not at the limit), K.
	Tm float64
	// ThermallyShort reports whether the segment earned end-cooling
	// credit.
	ThermallyShort bool
	// BlechImmortal reports that the segment's javg·L product is below
	// the Blech threshold: with blocking boundaries it cannot fail by
	// electromigration at all, so the (conservative) EM portion of the
	// limit does not bind. Informational — the verdict still uses the
	// full self-consistent rule.
	BlechImmortal bool
	Verdict       Verdict
}

// Config drives a check run.
type Config struct {
	// Deck supplies the technology, thermal model and rule parameters.
	Deck *rules.Deck
	// Sigma and Percentile configure the EM-statistics derating; zero
	// values select em.DefaultSigma / em.DefaultPercentile. Set
	// DisableStatistics to check against median rules.
	Sigma, Percentile float64
	DisableStatistics bool
	// MinDutyCycle floors the effective duty cycle used for the rule
	// (very peaky waveforms otherwise earn unrealistically high limits);
	// default 0.01.
	MinDutyCycle float64
	// BipolarRecovery, when > 0, credits bidirectional signal currents
	// with the Liew–Cheung–Hu EM recovery factor γ (§4.1's "much higher
	// EM immunity"): the segment's EM budget is boosted by
	// em.RecoveryBoost, capped at 10×. 0 keeps the conservative
	// unipolar treatment.
	BipolarRecovery float64
}

// recoveryBoostCap bounds the EM-budget credit from bipolar recovery so
// the heat constraint always remains solvable.
const recoveryBoostCap = 10.0

func (c *Config) defaults() error {
	if c.Deck == nil {
		return fmt.Errorf("%w: nil deck", ErrInvalid)
	}
	if c.Sigma == 0 {
		c.Sigma = em.DefaultSigma
	}
	if c.Percentile == 0 {
		c.Percentile = em.DefaultPercentile
	}
	if c.MinDutyCycle == 0 {
		c.MinDutyCycle = 0.01
	}
	if c.Sigma < 0 || c.Percentile <= 0 || c.Percentile >= 1 || c.MinDutyCycle <= 0 || c.MinDutyCycle > 1 {
		return fmt.Errorf("%w: statistics config", ErrInvalid)
	}
	if c.BipolarRecovery < 0 || c.BipolarRecovery > 1 {
		return fmt.Errorf("%w: bipolar recovery %g outside [0,1]", ErrInvalid, c.BipolarRecovery)
	}
	return nil
}

// Report is the outcome of checking a design.
type Report struct {
	Findings []Finding
	// ByNet counts the worst verdict per net.
	ByNet map[string]Verdict
	// Tref records the reference temperature the findings used, K.
	Tref float64
}

// Worst returns the worst verdict in the report (Pass for an empty one).
func (r *Report) Worst() Verdict {
	w := Pass
	for _, f := range r.Findings {
		if f.Verdict > w {
			w = f.Verdict
		}
	}
	return w
}

// Check verifies every segment against the deck.
func Check(cfg Config, segments []*Segment) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// Count segments per net for the weakest-link derating.
	perNet := map[string]int{}
	for _, s := range segments {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		perNet[s.Net]++
	}
	findings := make([]Finding, 0, len(segments))
	for _, s := range segments {
		f, err := checkSegment(context.Background(), cfg, s, perNet[s.Net])
		if err != nil {
			return nil, fmt.Errorf("netcheck: %s/%s: %w", s.Net, s.Name, err)
		}
		findings = append(findings, f)
	}
	return assembleReport(cfg, findings), nil
}

// assembleReport builds the Report from findings listed in segment input
// order: the per-net worst verdicts, then the worst-first stable sort.
// Both Check and CheckWith funnel through it, so their output is
// identical for the same design.
func assembleReport(cfg Config, findings []Finding) *Report {
	rep := &Report{Findings: findings, ByNet: map[string]Verdict{}, Tref: cfg.Deck.Spec.Tref}
	for _, f := range rep.Findings {
		if v, ok := rep.ByNet[f.Segment.Net]; !ok || f.Verdict > v {
			rep.ByNet[f.Segment.Net] = f.Verdict
		}
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Verdict != rep.Findings[j].Verdict {
			return rep.Findings[i].Verdict > rep.Findings[j].Verdict
		}
		return rep.Findings[i].Margin < rep.Findings[j].Margin
	})
	return rep
}

func checkSegment(ctx context.Context, cfg Config, s *Segment, netSegments int) (Finding, error) {
	if err := faultinject.Inject(ctx, faultinject.SiteNetcheckSegment); err != nil {
		return Finding{}, err
	}
	deck := cfg.Deck
	tech := deck.Tech
	layer, err := tech.Layer(s.Level)
	if err != nil {
		return Finding{}, err
	}
	area := layer.Width * s.WidthMultiple * layer.Thick

	f := Finding{Segment: s}
	f.Jpeak = s.Current.Peak() / area
	f.Jrms = s.Current.RMS() / area
	f.Javg = s.Current.AbsAvg() / area
	f.Reff = waveform.EffectiveDutyCycle(s.Current)
	if f.Jpeak == 0 {
		// Idle segment: trivially safe.
		f.Margin = 0
		f.Verdict = Pass
		f.Tm = deck.Spec.Tref
		return f, nil
	}
	r := f.Reff
	if r < cfg.MinDutyCycle {
		r = cfg.MinDutyCycle
	}

	// Self-consistent limit at the segment's own duty cycle and width.
	line, err := tech.Line(s.Level, s.Length)
	if err != nil {
		return Finding{}, err
	}
	line.Width *= s.WidthMultiple
	j0 := deck.Spec.J0
	if !cfg.DisableStatistics {
		der, err := em.SeriesJDerating(tech.Metal, cfg.Sigma, cfg.Percentile, netSegments)
		if err != nil {
			return Finding{}, err
		}
		j0 *= der
	}
	if cfg.BipolarRecovery > 0 {
		boost, err := em.RecoveryBoost(s.Current, cfg.BipolarRecovery, recoveryBoostCap)
		if err != nil {
			return Finding{}, err
		}
		j0 *= boost
	}
	prob := core.Problem{
		Line:  line,
		Model: *deck.Spec.Model,
		R:     r,
		J0:    j0,
		Tref:  deck.Spec.Tref,
	}
	var sol core.Solution
	if deck.Spec.Model.IsThermallyLong(line) {
		sol, err = core.SolveCtx(ctx, prob)
	} else {
		f.ThermallyShort = true
		sol, err = core.SolveFiniteLengthCtx(ctx, prob)
	}
	if err != nil {
		return Finding{}, err
	}
	f.Limit = sol.Jpeak
	f.Margin = f.Limit / f.Jpeak

	// Blech immortality (informational): javg·L below the threshold.
	if tp, err := em.TransportFor(tech.Metal); err == nil {
		if im, err := em.Immortal(tech.Metal, tp, f.Javg, s.Length, deck.Spec.Tref); err == nil {
			f.BlechImmortal = im
		}
	}

	// Predicted operating temperature at the actual RMS density.
	if tm, err := core.TemperatureAtJrms(prob, f.Jrms); err == nil {
		f.Tm = tm
	} else {
		// Thermal runaway at the operating point: report the ceiling.
		f.Tm = deck.Spec.Tref + core.TCeilingAboveRef
	}

	switch {
	case f.Margin >= MarginalThreshold:
		f.Verdict = Pass
	case f.Margin >= 1:
		f.Verdict = Marginal
	default:
		f.Verdict = Fail
	}
	return f, nil
}

// tref recovers the reference temperature the findings were computed at;
// Tm at or above tref + core.TCeilingAboveRef marks thermal runaway.
func (r *Report) tref() float64 {
	if r.Tref != 0 {
		return r.Tref
	}
	return phys.CToK(100)
}

// Format renders the report as a signoff table, worst first.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-4s %8s %8s %8s %6s %8s %8s %9s\n",
		"net", "segment", "lvl", "jpk", "jrms", "limit", "reff", "margin", "Tm[degC]", "verdict")
	for _, f := range r.Findings {
		short := ""
		if f.ThermallyShort {
			short += " (short)"
		}
		if f.BlechImmortal {
			short += " (blech-immortal)"
		}
		tm := fmt.Sprintf("%8.1f", phys.KToC(f.Tm))
		if f.Tm >= r.tref()+core.TCeilingAboveRef {
			tm = " RUNAWAY"
		}
		fmt.Fprintf(&b, "%-10s %-12s M%-3d %8.3g %8.3g %8.3g %6.3f %8.2f %s %9s%s\n",
			f.Segment.Net, f.Segment.Name, f.Segment.Level,
			phys.ToMAPerCm2(f.Jpeak), phys.ToMAPerCm2(f.Jrms), phys.ToMAPerCm2(f.Limit),
			f.Reff, f.Margin, tm, f.Verdict, short)
	}
	fmt.Fprintf(&b, "worst: %s (densities MA/cm²; margin = limit/jpeak)\n", r.Worst())
	return b.String()
}

// SuggestWidth returns the smallest width multiple (quantized to steps of
// 0.5, at least the current multiple) at which the segment passes with the
// configured margin threshold, searching up to maxMultiple. netSegments is
// the number of segments on the segment's net (as Check would count),
// so the weakest-link statistics derating matches the full report; pass 1
// for a standalone check. It is the "fixer" companion to Check: failing
// segments get a concrete resize suggestion.
func SuggestWidth(cfg Config, s *Segment, netSegments int, maxMultiple float64) (float64, error) {
	if err := cfg.defaults(); err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if netSegments < 1 {
		return 0, fmt.Errorf("%w: netSegments %d", ErrInvalid, netSegments)
	}
	if maxMultiple < s.WidthMultiple {
		return 0, fmt.Errorf("%w: maxMultiple %g below current %g", ErrInvalid, maxMultiple, s.WidthMultiple)
	}
	for mult := s.WidthMultiple; mult <= maxMultiple+1e-9; mult += 0.5 {
		trial := *s
		trial.WidthMultiple = mult
		f, err := checkSegment(context.Background(), cfg, &trial, netSegments)
		if err != nil {
			return 0, err
		}
		if f.Verdict == Pass {
			return mult, nil
		}
	}
	return 0, fmt.Errorf("%w: no passing width up to %gx for %s/%s", ErrInvalid, maxMultiple, s.Net, s.Name)
}
