package netcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceParse is the decoder ParseDesign stands in for:
// encoding/json's Decoder with DisallowUnknownFields.
func referenceParse(data []byte) (*DesignFile, error) {
	var df DesignFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&df); err != nil {
		return nil, err
	}
	return &df, nil
}

// checkParity fails unless ParseDesign, fed data whole and one byte per
// read, accepts exactly when the reference does and then yields a
// reflect.DeepEqual design, and wraps ErrInvalid when it rejects.
func checkParity(t *testing.T, data []byte) *DesignFile {
	t.Helper()
	want, wantErr := referenceParse(data)
	for name, r := range map[string]io.Reader{
		"whole":        bytes.NewReader(data),
		"byte by byte": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		got, err := ParseDesign(r)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s: ParseDesign err %v, reference err %v\ninput %q", name, err, wantErr, data)
		case err != nil && !errors.Is(err, ErrInvalid):
			t.Fatalf("%s: error %v does not wrap ErrInvalid", name, err)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%s: ParseDesign %#v\nreference %#v\ninput %q", name, got, want, data)
		}
	}
	return want
}

// FuzzParseDesign holds the one-pass design decoder to encoding/json's
// strict decoder on arbitrary bytes. Properties:
//
//   - ParseDesign never panics, whatever the input;
//   - it accepts exactly the inputs the reference accepts and yields a
//     reflect.DeepEqual design, whether the input arrives whole or one
//     byte per read;
//   - an accepted document re-encodes and parses again to the same
//     document (the schema round-trips — a field the parser reads but
//     the encoder drops, or vice versa, breaks this).
func FuzzParseDesign(f *testing.F) {
	for _, s := range readDesignSeeds(f) {
		f.Add(s)
	}
	for _, c := range parityCases {
		f.Add([]byte(c.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		df := checkParity(t, data)
		if df == nil {
			return
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

// readDesignSeeds returns testdata/designs.txt's designs:
// FuzzParseDesign's general seeds, which the server's route fuzz target
// reads too.
func readDesignSeeds(tb testing.TB) [][]byte {
	data, err := os.ReadFile("testdata/designs.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("designs.txt: %v in %s", err, line)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// parityCases pin the corners where a hand-written decoder most easily
// parts from encoding/json; accept says whether the reference accepts.
var parityCases = []struct {
	name   string
	input  string
	accept bool
}{
	{"empty body", ``, false},
	{"whitespace only", " \n\t\r ", false},
	{"top-level null", `null`, true},
	{"top-level null then junk", `null}x`, true},
	{"truncated null", `nul`, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"top-level number", `1`, false},
	{"bytes after the value", `{"node":"0.10"} {"node":`, true},
	{"trailing comma in object", `{"node":"0.10",}`, false},
	{"trailing comma in array", `{"segments":[{},]}`, false},
	{"truncated object", `{"node":"0.10"`, false},
	{"invalid UTF-8, one U+FFFD per byte", "{\"node\":\"a\xff\xfeb\xe2\x82\"}", true},
	{"UTF-8 surrogate bytes", "{\"node\":\"\xed\xa0\x80\",\"segments\":[{\"net\":\"\xed\xa0\x80\"}]}", true},
	{"paired surrogates", `{"node":"\ud83d\ude00"}`, true},
	{"lone high surrogate", `{"node":"\ud83dx"}`, true},
	{"lone low surrogate", `{"node":"\ude00\ud83d\ude00"}`, true},
	{"high surrogate then non-surrogate escape", `{"node":"\ud83d\u0041"}`, true},
	{"high surrogate then bad escape", `{"node":"\ud83d\u00"}`, false},
	{"high surrogate at string end", `{"node":"\ud83d"}`, true},
	{"two high surrogates", `{"node":"\ud83d\ud83d\ude00"}`, true},
	{"escaped NUL", `{"node":"a\u0000b"}`, true},
	{"every short escape", `{"node":"\"\\\/\b\f\n\r\t"}`, true},
	{"bad escape", `{"node":"\x"}`, false},
	{"short u escape", `{"node":"\u12"}`, false},
	{"escaped key", `{"no\u0064e":"0.10"}`, true},
	{"control character in string", "{\"node\":\"a\nb\"}", false},
	{"case-folded key", `{"NODE":"0.10","SEGMENTS":[{"Net":"a","WAVEFORM":{"KIND":"dc"}}]}`, true},
	{"Unicode-folded key", `{"ſegments":[{"lengthUm":1}]}`, true},
	{"Unicode-folded key, escaped", `{"\u017fegments":[{"lengthUm":1}]}`, true},
	{"Kelvin-sign key", `{"segments":[{"waveform":{"Kind":"dc"}}]}`, true},
	{"escaped Kelvin-sign key", `{"segments":[{"waveform":{"\u212aind":"dc"}}]}`, true},
	{"folded key of another length", `{"\u017fegments":[],"\u017fegmentsx":1}`, false},
	{"unknown field", `{"nodes":"0.10"}`, false},
	{"unknown segment field", `{"segments":[{"width":1}]}`, false},
	{"null string, number and struct fields", `{"node":"0.10","node":null,"j0MA":1.5,"j0MA":null,"segments":[{"waveform":{"kind":"dc"},"waveform":null,"level":3,"level":null}]}`, true},
	{"null segments", `{"segments":[{}],"segments":null}`, true},
	{"null segment element", `{"segments":[null,{"net":"a"}]}`, true},
	{"empty segments is not null", `{"segments":[]}`, true},
	{"repeated segments merge", `{"segments":[{"net":"a","level":1},{"net":"b"}],"segments":[{"name":"x"}]}`, true},
	{"repeated segments keep spare capacity", `{"segments":[{"net":"a"},{"net":"b"},{"net":"c"}],"segments":[{}],"segments":[{},{},{}]}`, true},
	{"repeated segments after empty", `{"segments":[{"net":"a"}],"segments":[],"segments":[{}]}`, true},
	{"repeated waveform merges", `{"segments":[{"waveform":{"kind":"dc","amps":1},"waveform":{"amps":2}}]}`, true},
	{"level 1.0", `{"segments":[{"level":1.0}]}`, false},
	{"level 1e0", `{"segments":[{"level":1e0}]}`, false},
	{"level past int64", `{"segments":[{"level":9223372036854775808}]}`, false},
	{"level -0", `{"segments":[{"level":-0}]}`, true},
	{"float past float64", `{"j0MA":1e309}`, false},
	{"float underflow", `{"j0MA":1e-400}`, true},
	{"leading zero", `{"j0MA":01}`, false},
	{"bare minus", `{"j0MA":-}`, false},
	{"bare fraction", `{"j0MA":1.}`, false},
	{"bare exponent", `{"j0MA":1e}`, false},
	{"string for number", `{"j0MA":"1"}`, false},
	{"number for string", `{"node":0.1}`, false},
	{"bool for string", `{"node":true}`, false},
	{"object for segments", `{"segments":{}}`, false},
	{"array for waveform", `{"segments":[{"waveform":[]}]}`, false},
	{"number for segment", `{"segments":[1]}`, false},
	{"BOM", "\xef\xbb\xbf{}", false},
}

// TestParseDesignMatchesReference pins the parity cases: each is
// accepted or rejected as the reference decides, with the same design.
func TestParseDesignMatchesReference(t *testing.T) {
	for _, c := range parityCases {
		t.Run(c.name, func(t *testing.T) {
			if df := checkParity(t, []byte(c.input)); (df != nil) != c.accept {
				t.Fatalf("reference accepts = %v, case says %v", df != nil, c.accept)
			}
		})
	}
	df := checkParity(t, []byte("{\"node\":\"a\xff\xfeb\xe2\x82\"}"))
	if want := "a��b��"; df.Node != want {
		t.Fatalf("node %q, want %q", df.Node, want)
	}
}

// errAfter is a reader that returns data, then err.
type errAfter struct {
	data []byte
	err  error
}

func (r *errAfter) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestParseDesignReadsOneValue: the decoder stops reading at the first
// value's end, so a reader error after it does not matter, and one
// inside it, or right after a top-level null, is an error.
func TestParseDesignReadsOneValue(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		data   string
		accept bool
	}{
		{`{"node":"0.10"}`, true},
		{`{"node":"0.10"`, false},
		{`null`, false},
		{`null `, true},
	} {
		_, err := ParseDesign(&errAfter{data: []byte(c.data), err: boom})
		if (err == nil) != c.accept {
			t.Errorf("%q then a read error: err %v, want accept %v", c.data, err, c.accept)
		}
		var df DesignFile
		dec := json.NewDecoder(&errAfter{data: []byte(c.data), err: boom})
		dec.DisallowUnknownFields()
		if refErr := dec.Decode(&df); (refErr == nil) != c.accept {
			t.Errorf("%q then a read error: reference err %v, want accept %v", c.data, refErr, c.accept)
		}
	}
}
