package lifetime

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dsmtherm/internal/em"
	"dsmtherm/internal/mathx"
)

func testParams() Params {
	return Params{
		Segments: []SegmentSpec{
			{Count: 200000, TempC: 105, JMA: 0.5},
			{Count: 5000, TempC: 140, JMA: 1.2},
		},
		Samples: 2000,
		Seed:    7,
		Rho:     0.3,
	}
}

func TestCompileDefaultsAndAnchor(t *testing.T) {
	p := testParams()
	p.Segments = []SegmentSpec{{Count: 1, TempC: 100, JMA: 1.8}}
	m, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// A segment exactly at the design point anchors to the goal median.
	if got := m.Chip.Classes[0].Median; math.Abs(got-em.DefaultLifetimeGoal)/em.DefaultLifetimeGoal > 1e-12 {
		t.Errorf("design-point median %g, want the %g s goal", got, float64(em.DefaultLifetimeGoal))
	}
	if m.Chip.Classes[0].Sigma != em.DefaultSigma {
		t.Errorf("sigma default %g", m.Chip.Classes[0].Sigma)
	}
	if len(m.Quantiles) != 3 || m.Quantiles[0] != em.DefaultPercentile {
		t.Errorf("quantile defaults %v", m.Quantiles)
	}

	// Hotter and denser must shorten the median.
	p.Segments = []SegmentSpec{{Count: 1, TempC: 140, JMA: 2.5}}
	hot, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Chip.Classes[0].Median >= m.Chip.Classes[0].Median {
		t.Error("hotter/denser class must have a shorter median TTF")
	}
}

func TestCompileValidation(t *testing.T) {
	mut := map[string]func(*Params){
		"no segments":    func(p *Params) { p.Segments = nil },
		"too many":       func(p *Params) { p.Segments = make([]SegmentSpec, MaxClasses+1) },
		"bad metal":      func(p *Params) { p.Metal = "unobtainium" },
		"zero count":     func(p *Params) { p.Segments[0].Count = 0 },
		"bad j":          func(p *Params) { p.Segments[0].JMA = 0 },
		"bad temp":       func(p *Params) { p.Segments[0].TempC = -300 },
		"tiny samples":   func(p *Params) { p.Samples = 10 },
		"huge samples":   func(p *Params) { p.Samples = MaxSamples + 1 },
		"neg sigma":      func(p *Params) { p.Sigma = -1 },
		"rho 1":          func(p *Params) { p.Rho = 1 },
		"neg goal":       func(p *Params) { p.GoalYears = -2 },
		"quantile 0":     func(p *Params) { p.Quantiles = []float64{0} },
		"quantile NaN":   func(p *Params) { p.Quantiles = []float64{math.NaN()} },
		"many quantiles": func(p *Params) { p.Quantiles = make([]float64, MaxQuantiles+1) },
	}
	for name, f := range mut {
		p := testParams()
		f(&p)
		if _, err := Compile(p); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
}

// TestSampleRangeChunkedMergeBitIdentical is the streaming-engine
// invariant: any chunk grid, sampled into separate sketches and merged
// in any order, encodes byte-identically to one uninterrupted pass.
func TestSampleRangeChunkedMergeBitIdentical(t *testing.T) {
	m, err := Compile(testParams())
	if err != nil {
		t.Fatal(err)
	}
	whole := NewSketch()
	if err := m.SampleRange(whole, 0, m.Samples); err != nil {
		t.Fatal(err)
	}
	want, err := whole.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	bounds := []int{0, 13, 640, 641, 1500, m.Samples}
	parts := make([][]byte, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		sk := NewSketch()
		if err := m.SampleRange(sk, bounds[c], bounds[c+1]); err != nil {
			t.Fatal(err)
		}
		if parts[c], err = sk.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 2, 0, 3, 1}} {
		merged := NewSketch()
		for _, c := range order {
			// Decode each part fresh: exactly what the job runner's
			// Finalize does with journaled chunk blobs.
			part, err := mathx.DecodeQuantileSketch(parts[c])
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		got, err := merged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merge order %v: state differs from uninterrupted pass", order)
		}
	}

	if err := m.SampleRange(NewSketch(), -1, 5); err == nil {
		t.Error("negative range: no error")
	}
	if err := m.SampleRange(NewSketch(), 0, m.Samples+1); err == nil {
		t.Error("overlong range: no error")
	}
}

func TestBuildReport(t *testing.T) {
	m, err := Compile(testParams())
	if err != nil {
		t.Fatal(err)
	}
	sk := NewSketch()
	if _, err := m.BuildReport(sk); err == nil {
		t.Fatal("incomplete sketch must be rejected")
	}
	if err := m.SampleRange(sk, 0, m.Samples); err != nil {
		t.Fatal(err)
	}
	r, err := m.BuildReport(sk)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != m.Samples || r.Classes != 2 || r.Segments != 205000 {
		t.Errorf("census echo wrong: %+v", r)
	}
	if !(r.MinYears < r.MedianYears && r.MedianYears < r.MaxYears) {
		t.Errorf("ordering: min %g median %g max %g", r.MinYears, r.MedianYears, r.MaxYears)
	}
	if len(r.Quantiles) != 3 {
		t.Fatalf("quantile count %d", len(r.Quantiles))
	}
	prev := 0.0
	for _, q := range r.Quantiles {
		if q.TTFYears < prev {
			t.Errorf("quantiles not nondecreasing in p: %+v", r.Quantiles)
		}
		prev = q.TTFYears
		if q.MeetsGoal != (q.TTFYears >= r.GoalYears) {
			t.Errorf("MeetsGoal inconsistent at p=%g", q.P)
		}
	}
}

// TestLifetimeChunkGrid pins the chunk rule the job journal relies on.
// ChunkSamples depends on the class count alone, is the largest power of
// two not above max(8192, 2^18/classes), and so never gives a job more
// chunks than the former fixed 8192-sample grid, and any other grid gives
// a multi-chunk job a different chunk count: a journal sliced on the old
// grid is detected and restarted, never merged across mismatched
// boundaries.
func TestLifetimeChunkGrid(t *testing.T) {
	base, err := Compile(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Params){
		"samples": func(p *Params) { p.Samples = MaxSamples },
		"seed":    func(p *Params) { p.Seed = 99 },
		"rho":     func(p *Params) { p.Rho = 0.9 },
		"census":  func(p *Params) { p.Segments[0] = SegmentSpec{Count: 1, TempC: 160, JMA: 3}; p.Sigma = 2 },
	} {
		p := testParams()
		mut(&p)
		m, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if m.ChunkSamples() != base.ChunkSamples() {
			t.Errorf("%s: ChunkSamples %d, want %d (the class count did not change)", name, m.ChunkSamples(), base.ChunkSamples())
		}
	}

	var samples []int
	for s := 100.0; s <= MaxSamples; s *= 1.37 {
		samples = append(samples, int(s))
	}
	for k := 7; k <= 24; k++ {
		samples = append(samples, 1<<k-1, 1<<k, 1<<k+1, 3<<k+100)
	}
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	for classes := 1; classes <= MaxClasses; classes++ {
		m := &Model{Chip: em.ChipModel{Classes: make([]em.SegmentClass, classes)}}
		n := m.ChunkSamples()
		if budget := max(minChunkSamples, chunkWork/classes); n&(n-1) != 0 || n > budget || 2*n <= budget {
			t.Fatalf("%d classes: ChunkSamples %d is not the largest power of two <= %d", classes, n, budget)
		}
		if n == 8192 {
			continue
		}
		for _, s := range samples {
			if s < 100 || s > MaxSamples {
				continue
			}
			a, b := ceilDiv(s, n), ceilDiv(s, 8192)
			if a == b && a > 1 {
				t.Fatalf("%d classes, %d samples: %d-sample grid has the same %d chunks as the 8192 grid", classes, s, n, a)
			}
			if a > b {
				t.Fatalf("%d classes, %d samples: %d chunks, more than the 8192 grid's %d", classes, s, a, b)
			}
		}
	}
	for classes, want := range map[int]int{1: 1 << 18, 3: 65536, 32: 8192, 33: 8192, MaxClasses: 8192} {
		m := &Model{Chip: em.ChipModel{Classes: make([]em.SegmentClass, classes)}}
		if got := m.ChunkSamples(); got != want {
			t.Errorf("%d classes: ChunkSamples %d, want %d", classes, got, want)
		}
	}
}
