// Package lifetime turns a chip's segment census — how many interconnect
// segments operate at which temperature and current density — into a
// statistical chip-lifetime distribution, the chip-scale composition of
// the paper's two halves: Black's equation accelerated by local
// self-heating (Eq. 6 at the segment's own Tm) and lognormal failure
// statistics with weakest-link scaling (§2.2).
//
// Each census class is anchored to the design rule: a segment running
// exactly at the EM budget (j = j0 at Tm = Tref) has a median TTF equal
// to the design lifetime goal, and every other operating point scales
// that median by em.LifetimeRatio. Chip samples then draw from the
// correlated weakest-link model (em.ChipModel) in O(classes) per sample,
// and aggregate into a mergeable quantile sketch — so a million-sample
// study streams through O(bins) memory, chunked sampling merges into the
// exact serial result, and checkpointed jobs journal sketch states.
package lifetime

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"dsmtherm/internal/em"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
)

// ErrInvalid reports an ill-formed lifetime request.
var ErrInvalid = errors.New("lifetime: invalid parameters")

// Hard caps: requests beyond these are rejected, not truncated.
const (
	// MaxClasses caps the segment census size.
	MaxClasses = 1 << 12
	// MaxSamples caps the Monte Carlo size a single request may ask
	// for (operators usually cap far lower; see the server config).
	MaxSamples = 1 << 24
	// MaxQuantiles caps the reported quantile list.
	MaxQuantiles = 16
)

// DefaultSamples is the Monte Carlo size when the request leaves it 0.
const DefaultSamples = 100000

// SketchAlpha is the relative accuracy of the lifetime quantile sketch
// (0.1%, far inside Monte Carlo noise at any permitted sample count).
const SketchAlpha = 0.001

const yearSeconds = 365.25 * 24 * 3600

// SegmentSpec is one census class: Count segments sharing an operating
// point.
type SegmentSpec struct {
	Count int `json:"count"`
	// TempC is the local metal temperature, °C (e.g. from /v1/chipcheck
	// tile temperatures).
	TempC float64 `json:"tempC"`
	// JMA is the segment's average current density, MA/cm².
	JMA float64 `json:"jMA"`
}

// Params is the wire-format lifetime request, shared by the synchronous
// /v1/lifetime handler and the lifetime job runner. Pointer fields
// follow the pointer-or-presence convention: absent means default,
// present means the client's value (zeros included).
type Params struct {
	// Metal selects the interconnect metal by name (default Cu).
	Metal string `json:"metal,omitempty"`
	// Segments is the chip's segment census.
	Segments []SegmentSpec `json:"segments"`
	// Samples is the Monte Carlo size (default DefaultSamples).
	Samples int `json:"samples,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Sigma is the lognormal shape of ln TTF (default em.DefaultSigma).
	Sigma float64 `json:"sigma,omitempty"`
	// Rho ∈ [0, 1) is the chip-wide lognormal correlation (default 0:
	// independent segments).
	Rho float64 `json:"rho,omitempty"`
	// J0MA is the EM budget at Tref, MA/cm² (default 1.8); TrefC the
	// reference corner, °C (default 100).
	J0MA  *float64 `json:"j0MA,omitempty"`
	TrefC *float64 `json:"trefC,omitempty"`
	// GoalYears is the design lifetime goal the medians anchor to
	// (default 10).
	GoalYears float64 `json:"goalYears,omitempty"`
	// Quantiles lists the cumulative-failure levels to report (default
	// 0.001, 0.01, 0.5 — the conventional design percentile, 1%, and
	// the median).
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// Model is a compiled request: everything downstream of Compile is a
// pure function of the model, and sample s depends only on (model, s).
// Build it with Compile, which also prepares the chip's sampling draw.
type Model struct {
	Chip        em.ChipModel
	Samples     int
	Seed        int64
	GoalSeconds float64
	Quantiles   []float64

	draw em.ChipDraw
}

// Compile validates the request and anchors each census class's median
// TTF to the design goal via em.LifetimeRatio at the class's own
// operating point.
func Compile(p Params) (*Model, error) {
	name := p.Metal
	if name == "" {
		name = "Cu"
	}
	metal, err := material.MetalByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if len(p.Segments) == 0 {
		return nil, fmt.Errorf("%w: empty segment census", ErrInvalid)
	}
	if len(p.Segments) > MaxClasses {
		return nil, fmt.Errorf("%w: %d segment classes exceeds cap %d", ErrInvalid, len(p.Segments), MaxClasses)
	}
	m := &Model{
		Samples:     p.Samples,
		Seed:        p.Seed,
		GoalSeconds: p.GoalYears * yearSeconds,
		Quantiles:   p.Quantiles,
	}
	if m.Samples == 0 {
		m.Samples = DefaultSamples
	}
	if m.Samples < 100 || m.Samples > MaxSamples {
		return nil, fmt.Errorf("%w: samples %d outside [100, %d]", ErrInvalid, m.Samples, MaxSamples)
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	if m.GoalSeconds == 0 {
		m.GoalSeconds = em.DefaultLifetimeGoal
	}
	if !(m.GoalSeconds > 0) || math.IsInf(m.GoalSeconds, 0) {
		return nil, fmt.Errorf("%w: goal %g years", ErrInvalid, p.GoalYears)
	}
	if len(m.Quantiles) == 0 {
		m.Quantiles = []float64{em.DefaultPercentile, 0.01, 0.5}
	}
	if len(m.Quantiles) > MaxQuantiles {
		return nil, fmt.Errorf("%w: %d quantiles exceeds cap %d", ErrInvalid, len(m.Quantiles), MaxQuantiles)
	}
	for _, q := range m.Quantiles {
		if !(q > 0 && q < 1) {
			return nil, fmt.Errorf("%w: quantile %g outside (0, 1)", ErrInvalid, q)
		}
	}
	sigma := p.Sigma
	if sigma == 0 {
		sigma = em.DefaultSigma
	}
	if !(sigma > 0 && sigma <= 5) {
		return nil, fmt.Errorf("%w: sigma %g outside (0, 5]", ErrInvalid, p.Sigma)
	}
	j0 := phys.MAPerCm2(orVal(p.J0MA, 1.8))
	tref := phys.CToK(orVal(p.TrefC, 100))
	m.Chip = em.ChipModel{Rho: p.Rho, Classes: make([]em.SegmentClass, len(p.Segments))}
	for i, s := range p.Segments {
		tm := phys.CToK(s.TempC)
		j := phys.MAPerCm2(s.JMA)
		ratio, err := em.LifetimeRatio(metal, j, tm, j0, tref)
		if err != nil {
			return nil, fmt.Errorf("%w: segment class %d: %v", ErrInvalid, i, err)
		}
		m.Chip.Classes[i] = em.SegmentClass{
			Count:  s.Count,
			Median: m.GoalSeconds * ratio,
			Sigma:  sigma,
		}
	}
	if err := m.Chip.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	m.draw = m.Chip.Draw()
	return m, nil
}

// orVal resolves a pointer-or-presence field.
func orVal(p *float64, def float64) float64 {
	if p == nil {
		return def
	}
	return *p
}

// NewSketch returns the sketch every lifetime aggregation uses. All
// chunks of one run must share the same accuracy, or their states
// cannot merge.
func NewSketch() *mathx.QuantileSketch {
	return mathx.NewQuantileSketch(SketchAlpha)
}

// SampleRange draws chip TTF samples [lo, hi) into sk, in log space
// from the uniform to the sketch bin (em.ChipBlock, AddLog), a block of
// samples at a time and in sample order. Sample s's RNG substream is
// keyed on the absolute index s, so any partition of [0, Samples) into
// ranges — each aggregated into its own sketch and merged in any order
// — produces bit-identical state to one uninterrupted pass. This is the
// chunk kernel of the lifetime job runner.
func (m *Model) SampleRange(sk *mathx.QuantileSketch, lo, hi int) error {
	if lo < 0 || hi > m.Samples || lo > hi {
		return fmt.Errorf("%w: sample range [%d, %d) outside [0, %d)", ErrInvalid, lo, hi, m.Samples)
	}
	src := &mathx.SplitMix64{}
	rng := rand.New(src)
	b := m.draw.NewBlock()
	for lo < hi {
		n := min(b.Len(), hi-lo)
		for j := 0; j < n; j++ {
			src.Seed(mathx.SeedMix(m.Seed, lo+j))
			b.Draw(j, rng)
		}
		for _, x := range b.LnTTF(n) {
			sk.AddLog(x)
		}
		lo += n
	}
	return nil
}

// chunkWork is the number of class draws a chunk of a small census
// carries: a few tens of milliseconds of sampling, so what every chunk
// costs whatever its size — a sketch blob of all its occupied bins, one
// journal append and fsync at its checkpoint, one decode and merge at
// Finalize — stays small beside the work, and a cancelled request stops
// within one chunk.
const chunkWork = 1 << 18

// minChunkSamples is the floor of the chunk size, the fixed grid lifetime
// jobs used before chunks were sized by work. A census of more than 32
// classes stays on it: smaller chunks would only add blobs, appends and
// fsyncs.
const minChunkSamples = 8192

// ChunkSamples is the size of the sample ranges chunked callers slice
// [0, Samples) into: the largest power of two not above
// max(8192, 2^18/classes). A small census gets chunks sized by its work
// (65536 samples for 3 classes, 2^18 for one); from 33 classes up it is
// 8192, so no census gets more chunks than that grid gives. It depends
// on the class count alone. The power of two is what lets the job
// journal detect a changed grid by chunk count: two different powers of
// two a < b give ⌈S/a⌉ ≥ 2⌈S/b⌉ − 1 > ⌈S/b⌉ whenever S spans more than
// one chunk of b, and a single chunk is the same range [0, S) on either
// grid.
func (m *Model) ChunkSamples() int {
	n := max(minChunkSamples, chunkWork/len(m.Chip.Classes))
	return 1 << (bits.Len(uint(n)) - 1)
}

// QuantileOut is one reported cumulative-failure level.
type QuantileOut struct {
	// P is the cumulative-failure level (e.g. 0.001).
	P float64 `json:"p"`
	// TTFYears is the chip TTF at that level, years.
	TTFYears float64 `json:"ttfYears"`
	// MeetsGoal reports TTFYears ≥ the design goal.
	MeetsGoal bool `json:"meetsGoal"`
}

// Report is the wire-format lifetime result.
type Report struct {
	Samples   int     `json:"samples"`
	Classes   int     `json:"classes"`
	Segments  int64   `json:"segments"`
	Rho       float64 `json:"rho"`
	GoalYears float64 `json:"goalYears"`
	// MedianYears, MinYears, MaxYears summarize the sampled chip-TTF
	// distribution (min/max are exact, the median is sketch-accurate).
	MedianYears float64 `json:"medianYears"`
	MinYears    float64 `json:"minYears"`
	MaxYears    float64 `json:"maxYears"`
	// Quantiles are the requested levels in request order.
	Quantiles []QuantileOut `json:"quantiles"`
	// Pass reports whether every requested quantile meets the goal.
	Pass bool `json:"pass"`
}

// BuildReport summarizes a fully aggregated sketch. The sketch must
// hold exactly Model.Samples values.
func (m *Model) BuildReport(sk *mathx.QuantileSketch) (*Report, error) {
	if sk.Count() != uint64(m.Samples) {
		return nil, fmt.Errorf("%w: sketch holds %d samples, want %d", ErrInvalid, sk.Count(), m.Samples)
	}
	var segs int64
	for _, c := range m.Chip.Classes {
		segs += int64(c.Count)
	}
	r := &Report{
		Samples:     m.Samples,
		Classes:     len(m.Chip.Classes),
		Segments:    segs,
		Rho:         m.Chip.Rho,
		GoalYears:   m.GoalSeconds / yearSeconds,
		MedianYears: sk.Quantile(0.5) / yearSeconds,
		MinYears:    sk.Min() / yearSeconds,
		MaxYears:    sk.Max() / yearSeconds,
		Pass:        true,
	}
	for _, p := range m.Quantiles {
		q := QuantileOut{P: p, TTFYears: sk.Quantile(p) / yearSeconds}
		q.MeetsGoal = q.TTFYears*yearSeconds >= m.GoalSeconds
		r.Quantiles = append(r.Quantiles, q)
		if !q.MeetsGoal {
			r.Pass = false
		}
	}
	return r, nil
}
