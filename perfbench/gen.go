package main

import (
	"fmt"
	"math/rand"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/server"
)

// Seeded input generators. Every request the daemon sees is drawn here
// from the workload seed, and every draw is in range: a failed
// operation is the daemon's fault, never the generator's.

const (
	// dutySteps duty cycles k/dutySteps (k = 1..dutySteps) on each of the
	// 14 (node, level) pairs give a key space of about 30k, well above
	// the daemon's 4096-entry cache, so a Zipf draw exercises both the
	// hit and the miss path. Duty cycles are exact ratios with the top
	// one exactly 1, never above it.
	dutySteps = 2143
	// zipfS is the Zipf exponent of the rules key popularity.
	zipfS = 1.1
	// batchEntries is the size of one /v1/batch request.
	batchEntries = 32
	// netcheckSegments is the size of one /v1/netcheck design.
	netcheckSegments = 200
	// Job sizes: the lifetime job is checkpoint-heavy (8192-sample
	// chunks), the chipcheck job's grid is above the 4096-node
	// synchronous cap, the montecarlo job has a few hundred 32-sample
	// chunks.
	lifetimeJobChunks = 100
	lifetimeChunk     = 8192
	mcJobChunks       = 200
	mcChunk           = 32
)

// seedFor derives an independent stream seed for one generator of the
// run, so adding a client never shifts another client's draws.
func seedFor(seed int64, stream int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z >> 1)
}

// ruleKey is one cacheable rules query.
type ruleKey struct {
	Node  string
	Level int
	Duty  float64
}

func (k ruleKey) request() server.RulesRequest {
	d := k.Duty
	return server.RulesRequest{Node: k.Node, Level: k.Level, DutyCycle: &d}
}

// nodes are the two technologies the daemon serves.
var nodes = []struct {
	name string
	tech func() *ntrs.Technology
}{{"0.25", ntrs.N250}, {"0.10", ntrs.N100}}

// keySpace lists every rules key in popularity order: rank 0 is the
// hottest. The order is a seeded shuffle, so hot keys spread over all
// nodes and levels.
type keySpace []ruleKey

func newKeySpace(seed int64) keySpace {
	var ks keySpace
	for _, n := range nodes {
		for l := 1; l <= n.tech().NumLevels(); l++ {
			for k := 1; k <= dutySteps; k++ {
				ks = append(ks, ruleKey{Node: n.name, Level: l, Duty: float64(k) / dutySteps})
			}
		}
	}
	r := rand.New(rand.NewSource(seedFor(seed, 0)))
	r.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// gen is one client's generator.
type gen struct {
	r    *rand.Rand
	keys keySpace
	zipf *rand.Zipf
}

func newGen(seed, stream int64, keys keySpace) *gen {
	r := rand.New(rand.NewSource(seedFor(seed, stream)))
	return &gen{r: r, keys: keys, zipf: rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))}
}

func (g *gen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

func (g *gen) ruleKey() ruleKey { return g.keys[g.zipf.Uint64()] }

// batch draws batchEntries keys from the rules distribution; the Zipf
// head makes duplicates common, which the daemon folds.
func (g *gen) batch() []ruleKey {
	out := make([]ruleKey, batchEntries)
	for i := range out {
		out[i] = g.ruleKey()
	}
	return out
}

// design draws a fresh netcheck design: netcheckSegments segments on 25
// nets, every waveform kind, widths 1-4x, lengths 20-3000 µm.
func (g *gen) design() netcheck.DesignFile {
	n := nodes[g.r.Intn(len(nodes))]
	levels := n.tech().NumLevels()
	df := netcheck.DesignFile{Node: n.name, J0MA: []float64{1.2, 1.5, 1.8}[g.r.Intn(3)]}
	for i := 0; i < netcheckSegments; i++ {
		s := netcheck.SegmentSpec{
			Net:           fmt.Sprintf("n%d", g.r.Intn(25)),
			Name:          fmt.Sprintf("s%d", i),
			Level:         1 + g.r.Intn(levels),
			WidthMultiple: float64(1 + g.r.Intn(4)),
			LengthUm:      g.uniform(20, 3000),
		}
		switch g.r.Intn(3) {
		case 0:
			s.Waveform = netcheck.WaveformSpec{Kind: "dc", Amps: g.uniform(1e-5, 2e-3)}
		case 1:
			s.Waveform = netcheck.WaveformSpec{Kind: "unipolar", PeakMA: g.uniform(0.5, 20), DutyCycle: g.uniform(0.01, 1)}
		default:
			s.Waveform = netcheck.WaveformSpec{Kind: "bipolar", PeakMA: g.uniform(0.5, 20), DutyCycle: g.uniform(0.01, 0.5)}
		}
		df.Segments = append(df.Segments, s)
	}
	return df
}

func fptr(v float64) *float64 { return &v }

// mediumGrid is a 48×32 pad-ring power grid with about 12 A of uniform
// load plus one hotspot; smallGrid a 12×12 one. The hotspot range keeps
// the medium check's fixed point at 5 passes (4 or 6 in about one draw
// in 30), so the latency median does not straddle two pass counts.
func (g *gen) mediumGrid() chipcheck.Params {
	return chipcheck.Params{
		Nx: 48, Ny: 32, WidthMultiple: fptr(8), PadRing: true,
		UniformLoadA: fptr(g.uniform(11, 13)),
		Loads:        []chipcheck.LoadSpec{{I: 8 + g.r.Intn(32), J: 6 + g.r.Intn(20), Amps: g.uniform(1.6, 2)}},
	}
}

func (g *gen) smallGrid() chipcheck.Params {
	return chipcheck.Params{
		Nx: 12, Ny: 12, PadRing: true,
		UniformLoadA: fptr(g.uniform(1, 1.4)),
		Loads:        []chipcheck.LoadSpec{{I: 2 + g.r.Intn(8), J: 2 + g.r.Intn(8), Amps: g.uniform(0.2, 0.4)}},
	}
}

// jobGrid is above the synchronous 4096-node cap, so it runs only as a
// job.
func (g *gen) jobGrid() chipcheck.Params {
	nx, ny := 65+g.r.Intn(7), 65+g.r.Intn(7)
	return chipcheck.Params{
		Nx: nx, Ny: ny, WidthMultiple: fptr(8), PadRing: true,
		UniformLoadA: fptr(g.uniform(18, 22)),
		Loads:        []chipcheck.LoadSpec{{I: 8 + g.r.Intn(nx-16), J: 8 + g.r.Intn(ny-16), Amps: g.uniform(1, 2)}},
	}
}

// census is a 3-class chip segment census with correlation ρ≈0.3.
func (g *gen) census(samples int) lifetime.Params {
	return lifetime.Params{
		Segments: []lifetime.SegmentSpec{
			{Count: 150000 + g.r.Intn(100000), TempC: g.uniform(95, 110), JMA: g.uniform(0.3, 0.6)},
			{Count: 2000 + g.r.Intn(6000), TempC: g.uniform(120, 145), JMA: g.uniform(0.9, 1.4)},
			{Count: 100 + g.r.Intn(400), TempC: g.uniform(150, 165), JMA: g.uniform(1.4, 1.8)},
		},
		Samples: samples,
		Seed:    1 + g.r.Int63n(1<<40),
		Rho:     g.uniform(0.25, 0.35),
	}
}

// jobCycle is one round of the contended job sequence, in submit order.
func (g *gen) jobCycle() []jobs.SubmitRequest {
	lt := g.census(lifetimeJobChunks*lifetimeChunk - g.r.Intn(lifetimeChunk/2))
	cc := g.jobGrid()
	mc := jobs.MonteCarloParams{
		Node:       nodes[g.r.Intn(len(nodes))].name,
		Samples:    (mcJobChunks + g.r.Intn(mcJobChunks/2)) * mcChunk,
		Seed:       1 + g.r.Int63n(1<<40),
		WidthSigma: g.uniform(0.03, 0.07),
		ThickSigma: g.uniform(0.02, 0.05),
	}
	return []jobs.SubmitRequest{
		{Type: jobs.TypeLifetime, Lifetime: &lt},
		{Type: jobs.TypeChipcheck, Chipcheck: &cc},
		{Type: jobs.TypeMonteCarlo, MonteCarlo: &mc},
	}
}
