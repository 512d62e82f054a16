package server

// Handler benchmarks: the serving layer without the loopback. Each
// drives Handler().ServeHTTP through an httptest.ResponseRecorder on a
// 2-slot pool, with request bodies drawn from a fixed seed the way
// perfbench's interactive generators draw them, and every cache warmed
// before the timer starts, so an op is admission, decoding, key
// building, the pool, cache lookups and response encoding (plus the
// per-segment checks on netcheck and the coupled solves on chipcheck).
// One op is at least 1 ms, so
// -benchtime 10x resolves it:
//
//	go test ./internal/server -run '^$' -bench Handler -benchtime 10x -benchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
)

// benchSeed fixes every drawn request body.
const benchSeed = 1001

// benchNodes are perfbench's two served technologies.
var benchNodes = []struct {
	name   string
	levels int
}{{"0.25", ntrs.N250().NumLevels()}, {"0.10", ntrs.N100().NumLevels()}}

// benchRulesRequest draws one rules query on perfbench's key grid:
// duty cycles k/2143 on every (node, level).
func benchRulesRequest(r *rand.Rand) RulesRequest {
	n := benchNodes[r.Intn(len(benchNodes))]
	d := float64(1+r.Intn(2143)) / 2143
	return RulesRequest{Node: n.name, Level: 1 + r.Intn(n.levels), DutyCycle: &d}
}

// benchDesign draws a 200-segment netcheck design on 25 nets with every
// waveform kind, widths 1-4x and lengths 20-3000 µm, as perfbench's
// design generator does.
func benchDesign(r *rand.Rand) netcheck.DesignFile {
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	n := benchNodes[r.Intn(len(benchNodes))]
	df := netcheck.DesignFile{Node: n.name, J0MA: []float64{1.2, 1.5, 1.8}[r.Intn(3)]}
	for i := 0; i < 200; i++ {
		s := netcheck.SegmentSpec{
			Net:           fmt.Sprintf("n%d", r.Intn(25)),
			Name:          fmt.Sprintf("s%d", i),
			Level:         1 + r.Intn(n.levels),
			WidthMultiple: float64(1 + r.Intn(4)),
			LengthUm:      uniform(20, 3000),
		}
		switch r.Intn(3) {
		case 0:
			s.Waveform = netcheck.WaveformSpec{Kind: "dc", Amps: uniform(1e-5, 2e-3)}
		case 1:
			s.Waveform = netcheck.WaveformSpec{Kind: "unipolar", PeakMA: uniform(0.5, 20), DutyCycle: uniform(0.01, 1)}
		default:
			s.Waveform = netcheck.WaveformSpec{Kind: "bipolar", PeakMA: uniform(0.5, 20), DutyCycle: uniform(0.01, 0.5)}
		}
		df.Segments = append(df.Segments, s)
	}
	return df
}

// handlerBench is a daemon's handler and the bodies one op posts to
// path, in order.
type handlerBench struct {
	h      http.Handler
	path   string
	bodies [][]byte
}

func newHandlerBench(b *testing.B, path string, reqs ...any) *handlerBench {
	b.Helper()
	hb := &handlerBench{h: New(Config{Workers: 2}).Handler(), path: path}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		hb.bodies = append(hb.bodies, body)
	}
	hb.op(b) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	return hb
}

func (hb *handlerBench) op(b *testing.B) {
	for _, body := range hb.bodies {
		rec := httptest.NewRecorder()
		hb.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, hb.path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", hb.path, rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkHandlerRulesCached: one op is 64 distinct cached /v1/rules
// queries.
func BenchmarkHandlerRulesCached(b *testing.B) {
	r := rand.New(rand.NewSource(benchSeed))
	reqs := make([]any, 64)
	for i := range reqs {
		reqs[i] = benchRulesRequest(r)
	}
	hb := newHandlerBench(b, "/v1/rules", reqs...)
	for i := 0; i < b.N; i++ {
		hb.op(b)
	}
}

// BenchmarkHandlerBatch: one op is four 32-entry /v1/batch requests
// whose entries are all cached.
func BenchmarkHandlerBatch(b *testing.B) {
	r := rand.New(rand.NewSource(benchSeed))
	reqs := make([]any, 4)
	for i := range reqs {
		batch := BatchRequest{Requests: make([]RulesRequest, 32)}
		for j := range batch.Requests {
			batch.Requests[j] = benchRulesRequest(r)
		}
		reqs[i] = batch
	}
	hb := newHandlerBench(b, "/v1/batch", reqs...)
	for i := 0; i < b.N; i++ {
		hb.op(b)
	}
}

// BenchmarkHandlerNetcheck: one op is one 200-segment /v1/netcheck
// design on a cached deck.
func BenchmarkHandlerNetcheck(b *testing.B) {
	hb := newHandlerBench(b, "/v1/netcheck", benchDesign(rand.New(rand.NewSource(benchSeed))))
	for i := 0; i < b.N; i++ {
		hb.op(b)
	}
}

// benchChipGrids draws one 48×32 and one 12×12 pad-ring check, each
// with a uniform load and one hotspot, as perfbench's chipscale grid
// generators draw them.
func benchChipGrids(r *rand.Rand) []any {
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	fp := func(v float64) *float64 { return &v }
	medium := chipcheck.Params{
		Nx: 48, Ny: 32, WidthMultiple: fp(8), PadRing: true,
		UniformLoadA: fp(uniform(11, 13)),
		Loads:        []chipcheck.LoadSpec{{I: 8 + r.Intn(32), J: 6 + r.Intn(20), Amps: uniform(1.6, 2)}},
	}
	small := chipcheck.Params{
		Nx: 12, Ny: 12, PadRing: true,
		UniformLoadA: fp(uniform(1, 1.4)),
		Loads:        []chipcheck.LoadSpec{{I: 2 + r.Intn(8), J: 2 + r.Intn(8), Amps: uniform(0.2, 0.4)}},
	}
	return []any{medium, small}
}

// BenchmarkHandlerChipcheck: one op is one 48×32 and one 12×12
// /v1/chipcheck check, on a daemon that has already answered both
// geometries.
func BenchmarkHandlerChipcheck(b *testing.B) {
	hb := newHandlerBench(b, "/v1/chipcheck", benchChipGrids(rand.New(rand.NewSource(benchSeed)))...)
	for i := 0; i < b.N; i++ {
		hb.op(b)
	}
}
