package netcheck

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseDesign hammers the strict design-file parser with arbitrary
// bytes. Properties:
//
//   - ParseDesign never panics, whatever the input;
//   - when it accepts an input, re-encoding the parsed DesignFile and
//     parsing again succeeds and yields the same document (the schema
//     round-trips — a field the parser reads but the encoder drops, or
//     vice versa, breaks this).
func FuzzParseDesign(f *testing.F) {
	f.Add([]byte(`{"node":"0.25","segments":[]}`))
	f.Add([]byte(`{
		"node": "0.25",
		"j0MA": 1.8,
		"gap": "HSQ",
		"segments": [
			{"net":"clk","name":"s1","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}},
			{"net":"vdd","name":"rail","level":6,"widthMultiple":4,"lengthUm":500,
			 "waveform":{"kind":"dc","amps":0.002}}
		]
	}`))
	f.Add([]byte(`{"node":"0.10","segments":[{"net":"a","name":"b","level":1,"widthMultiple":1,"lengthUm":10,"waveform":{"kind":"unipolar","peakMA":0.5,"dutyCycle":0.5}}]}`))
	f.Add([]byte(`{"node":"1.21"}`))                        // unknown node parses; Tech() rejects
	f.Add([]byte(`{"unknownField":true,"segments":[]}`))    // strict decode rejects
	f.Add([]byte(`{"node":"0.25","segments":[{}]}`))        // empty segment
	f.Add([]byte(`{"j0MA":-1e308,"segments":null}`))        // extreme numbers
	f.Add([]byte(`[1,2,3]`))                                // wrong top-level shape
	f.Add([]byte(``))                                       // empty input
	f.Add([]byte(`{"node":"0.25","segments":[]} trailing`)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		df, err := ParseDesign(bytes.NewReader(data))
		if err != nil {
			return
		}
		if df == nil {
			t.Fatal("ParseDesign returned nil, nil")
		}
		// Round-trip: encode the accepted document and parse it again.
		enc, err := json.Marshal(df)
		if err != nil {
			t.Fatalf("accepted design does not re-encode: %v", err)
		}
		df2, err := ParseDesign(strings.NewReader(string(enc)))
		if err != nil {
			t.Fatalf("re-encoded design rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(df2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("design does not round-trip:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}
