package netcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dsmtherm/internal/ntrs"
)

const goodDesign = `{
  "node": "0.25",
  "j0MA": 1.8,
  "gap": "HSQ",
  "segments": [
    {"net": "clk", "name": "s1", "level": 6, "widthMultiple": 2,
     "lengthUm": 3000,
     "waveform": {"kind": "bipolar", "peakMA": 2.0, "dutyCycle": 0.12}},
    {"net": "vdd", "name": "strap", "level": 5,
     "lengthUm": 2000,
     "waveform": {"kind": "dc", "amps": 0.001}},
    {"net": "io", "name": "u1", "level": 5, "widthMultiple": 1,
     "lengthUm": 500,
     "waveform": {"kind": "unipolar", "peakMA": 3, "dutyCycle": 0.2}}
  ]
}`

func TestLoadDesignAndCheck(t *testing.T) {
	deck, segs, err := LoadDesign(strings.NewReader(goodDesign))
	if err != nil {
		t.Fatal(err)
	}
	if deck.Tech.Gap.Name != "HSQ" {
		t.Errorf("gap fill = %s", deck.Tech.Gap.Name)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	// Default width multiple applied.
	if segs[1].WidthMultiple != 1 {
		t.Error("default widthMultiple should be 1")
	}
	rep, err := Check(Config{Deck: deck}, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 3 {
		t.Fatalf("findings: %d", len(rep.Findings))
	}
	// The clk segment is healthy.
	if rep.ByNet["clk"] != Pass {
		t.Errorf("clk verdict %v:\n%s", rep.ByNet["clk"], rep.Format())
	}
}

func TestLoadDesignErrors(t *testing.T) {
	bad := []string{
		`{`,                                      // malformed JSON
		`{"node": "45nm", "segments": []}`,       // unknown node
		`{"node": "0.25", "gap": "teflon"}`,      // unknown dielectric
		`{"node": "0.25", "metal": "gold"}`,      // unknown metal
		`{"node": "0.25", "unknownField": true}`, // schema violation
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":99,"lengthUm":10,
		    "waveform":{"kind":"dc","amps":1}}]}`, // bad level
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":5,"lengthUm":10,
		    "waveform":{"kind":"triangle"}}]}`, // bad waveform kind
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":5,"lengthUm":10,
		    "waveform":{"kind":"bipolar","peakMA":1,"dutyCycle":2}}]}`, // bad duty cycle
	}
	for i, s := range bad {
		// Each is the client's fault, so each must wrap ErrInvalid,
		// which the daemon answers with a 400, not a 500.
		if _, _, err := LoadDesign(strings.NewReader(s)); !errors.Is(err, ErrInvalid) {
			t.Errorf("design %d: err %v, want one wrapping ErrInvalid", i, err)
		}
	}
}

func TestLoadDesignMetalSwap(t *testing.T) {
	design := `{"node": "0.10", "metal": "AlCu", "segments": []}`
	deck, _, err := LoadDesign(strings.NewReader(design))
	if err != nil {
		t.Fatal(err)
	}
	if deck.Tech.Metal.Name != "AlCu" {
		t.Errorf("metal = %s", deck.Tech.Metal.Name)
	}
}

// benchDesign draws a 200-segment design on 25 nets with every waveform
// kind, widths 1-4x and lengths 20-3000 µm, as perfbench's design
// generator draws the /v1/netcheck bodies of its interactive workload.
func benchDesign(r *rand.Rand) DesignFile {
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	nodes := []struct {
		name   string
		levels int
	}{{"0.25", ntrs.N250().NumLevels()}, {"0.10", ntrs.N100().NumLevels()}}
	n := nodes[r.Intn(len(nodes))]
	df := DesignFile{Node: n.name, J0MA: []float64{1.2, 1.5, 1.8}[r.Intn(3)]}
	for i := 0; i < 200; i++ {
		s := SegmentSpec{
			Net:           fmt.Sprintf("n%d", r.Intn(25)),
			Name:          fmt.Sprintf("s%d", i),
			Level:         1 + r.Intn(n.levels),
			WidthMultiple: float64(1 + r.Intn(4)),
			LengthUm:      uniform(20, 3000),
		}
		switch r.Intn(3) {
		case 0:
			s.Waveform = WaveformSpec{Kind: "dc", Amps: uniform(1e-5, 2e-3)}
		case 1:
			s.Waveform = WaveformSpec{Kind: "unipolar", PeakMA: uniform(0.5, 20), DutyCycle: uniform(0.01, 1)}
		default:
			s.Waveform = WaveformSpec{Kind: "bipolar", PeakMA: uniform(0.5, 20), DutyCycle: uniform(0.01, 0.5)}
		}
		df.Segments = append(df.Segments, s)
	}
	return df
}

// BenchmarkParseDesign: one op decodes one 200-segment design (about
// 32 KB of JSON, seed 1001) from a reader.
func BenchmarkParseDesign(b *testing.B) {
	body, err := json.Marshal(benchDesign(rand.New(rand.NewSource(1001))))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDesign(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
