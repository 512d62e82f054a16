package chipcheck

import (
	"fmt"
	"math"
	"sort"

	"dsmtherm/internal/em"
	"dsmtherm/internal/phys"
)

// Verdict codes.
const (
	CodeIdle     = "idle"     // no current, or one too small to bound: EM cannot act
	CodeImmortal = "immortal" // below the Blech product: immune
	CodePass     = "pass"     // lifetime ratio ≥ 1 at local temperature
	CodeFail     = "fail"     // lifetime ratio < 1
)

// Verdict is the per-segment EM signoff outcome.
type Verdict struct {
	// Branch is the segment's index in the grid's canonical branch
	// order (horizontal row-major, then vertical column-major).
	Branch int `json:"branch"`
	// Level is the metallization level.
	Level int `json:"level"`
	// JMA is the segment current density, MA/cm².
	JMA float64 `json:"jMA"`
	// TmC is the segment metal temperature, °C.
	TmC float64 `json:"tmC"`
	// Ratio is the EM lifetime ratio vs the (j0, Tref) budget; ≥ 1
	// passes. Zero for idle segments.
	Ratio float64 `json:"ratio"`
	// Immortal reports the Blech short-length criterion.
	Immortal bool `json:"immortal"`
	// Code is one of idle|immortal|pass|fail.
	Code string `json:"code"`
}

// Verdicts runs the single-pass EM check over branches [lo, hi) of the
// solved field, serially on the calling goroutine: a verdict is a few
// flops a branch, cheaper than handing branches to other cores, and the
// job lane runs chipcheck chunks on its own workers. Each verdict
// depends only on the field and its own branch, so a tile's verdict
// slice is a pure function of (Params, tile range). A branch whose
// lifetime ratio fails stops the pass with that error, wrapped with the
// branch index, so the error is the lowest-index one.
func (c *Check) Verdicts(f *Field, lo, hi int) ([]Verdict, error) {
	nb := c.NumBranches()
	if lo < 0 || hi < lo || hi > nb {
		return nil, fmt.Errorf("%w: branch range [%d,%d) of %d", ErrInvalid, lo, hi, nb)
	}
	if len(f.Sol.Branches) != nb {
		return nil, fmt.Errorf("%w: field has %d branches, grid %d", ErrInvalid, len(f.Sol.Branches), nb)
	}
	out := make([]Verdict, hi-lo)
	for bi := lo; bi < hi; bi++ {
		b := &f.Sol.Branches[bi]
		level, length, _ := c.Grid.BranchGeometry(b)
		v := &out[bi-lo]
		*v = Verdict{
			Branch: bi,
			Level:  level,
			JMA:    phys.ToMAPerCm2(b.J),
			TmC:    phys.KToC(b.Tm),
			Code:   CodeIdle,
		}
		if b.J == 0 {
			continue
		}
		ratio, err := em.LifetimeRatio(c.metal, b.J, b.Tm, c.j0, c.tref)
		if err != nil {
			return nil, fmt.Errorf("chipcheck: branch %d: %w", bi, err)
		}
		if math.IsInf(ratio, 1) {
			// A current too small for Black's law to bound in float64:
			// EM cannot act on it, so it is idle like a zero current.
			continue
		}
		v.Ratio = ratio
		if c.hasTransport {
			if imm, err := em.Immortal(c.metal, c.transport, b.J, length, b.Tm); err == nil && imm {
				v.Immortal = true
				v.Code = CodeImmortal
				continue
			}
		}
		if ratio >= 1 {
			v.Code = CodePass
		} else {
			v.Code = CodeFail
		}
	}
	return out, nil
}

// Summary aggregates a full verdict stream plus the coupled-field
// health numbers.
type Summary struct {
	Nodes    int `json:"nodes"`
	Branches int `json:"branches"`
	Pads     int `json:"pads"`

	Converged      bool    `json:"converged"`
	Iterations     int     `json:"iterations"`
	FinalResidualK float64 `json:"finalResidualK"`
	TolK           float64 `json:"tolK"`

	WorstDropV    float64 `json:"worstDropV"`
	WorstDropNode NodeRef `json:"worstDropNode"`
	DropLimitV    float64 `json:"dropLimitV"`
	DropOK        bool    `json:"dropOK"`

	MaxJMA     float64 `json:"maxJMA"`
	HottestTmC float64 `json:"hottestTmC"`
	MaxDeltaTK float64 `json:"maxDeltaTK"`

	Idle     int `json:"idle"`
	Immortal int `json:"immortal"`
	Pass     int `json:"pass"`
	Fail     int `json:"fail"`

	// Lifetime-ratio quantiles over active (non-idle) segments; the
	// low tail is the signoff margin.
	RatioP1  float64 `json:"ratioP1"`
	RatioP10 float64 `json:"ratioP10"`
	RatioP50 float64 `json:"ratioP50"`

	// OK is the headline verdict: converged, drop within budget, and
	// zero EM failures.
	OK bool `json:"ok"`
}

// Result is the wire-format chipcheck outcome.
type Result struct {
	Summary Summary `json:"summary"`
	// Worst lists the WorstOut lowest-ratio active segments.
	Worst []Verdict `json:"worst,omitempty"`
	// Segments is the full verdict stream when requested.
	Segments []Verdict `json:"segments,omitempty"`
}

// quantile returns the q-quantile of a sorted slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// Report folds the complete verdict stream (all branches, canonical
// order) into a Result. Deterministic: ties in the worst list break on
// branch index.
func (c *Check) Report(f *Field, verdicts []Verdict) (*Result, error) {
	nb := c.NumBranches()
	if len(verdicts) != nb {
		return nil, fmt.Errorf("%w: %d verdicts for %d branches", ErrInvalid, len(verdicts), nb)
	}
	s := Summary{
		Nodes:         c.Grid.Nx * c.Grid.Ny,
		Branches:      nb,
		Pads:          len(c.Grid.Pads),
		Converged:     f.Converged,
		Iterations:    f.Iterations,
		TolK:          c.tol,
		WorstDropV:    f.Sol.WorstDrop,
		WorstDropNode: NodeRef{I: f.Sol.WorstDropNode.I, J: f.Sol.WorstDropNode.J},
		DropLimitV:    c.dropLimit,
		MaxJMA:        phys.ToMAPerCm2(f.Sol.MaxJ),
		HottestTmC:    phys.KToC(f.Sol.HottestTm),
	}
	if n := len(f.Residuals); n > 0 {
		s.FinalResidualK = f.Residuals[n-1]
	}
	for _, dt := range f.DT {
		if dt > s.MaxDeltaTK {
			s.MaxDeltaTK = dt
		}
	}
	s.DropOK = s.WorstDropV <= s.DropLimitV

	active := make([]int, 0, nb)
	ratios := make([]float64, 0, nb)
	for i := range verdicts {
		switch verdicts[i].Code {
		case CodeIdle:
			s.Idle++
			continue
		case CodeImmortal:
			s.Immortal++
		case CodePass:
			s.Pass++
		case CodeFail:
			s.Fail++
		default:
			return nil, fmt.Errorf("%w: verdict %d has code %q", ErrInvalid, i, verdicts[i].Code)
		}
		active = append(active, i)
		ratios = append(ratios, verdicts[i].Ratio)
	}
	sort.Float64s(ratios)
	s.RatioP1 = quantile(ratios, 0.01)
	s.RatioP10 = quantile(ratios, 0.10)
	s.RatioP50 = quantile(ratios, 0.50)
	s.OK = s.Converged && s.DropOK && s.Fail == 0

	sort.Slice(active, func(a, b int) bool {
		va, vb := &verdicts[active[a]], &verdicts[active[b]]
		if va.Ratio != vb.Ratio {
			return va.Ratio < vb.Ratio
		}
		return va.Branch < vb.Branch
	})
	res := &Result{Summary: s}
	for _, i := range active[:min(WorstOut, len(active))] {
		res.Worst = append(res.Worst, verdicts[i])
	}
	if c.includeSegments {
		res.Segments = verdicts[:min(maxSegmentsOut, len(verdicts))]
	}
	return res, nil
}
