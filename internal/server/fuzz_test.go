package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// canonFloat collapses every NaN bit pattern to one representative so
// float comparison matches the key encoder's behaviour: strconv renders
// any NaN as "NaN", so all NaNs share a key — and nothing else may.
// +0 and -0 render differently ("0x0p+00" vs "-0x0p+00") and therefore
// key differently, which Float64bits comparison also reflects.
func canonFloat(x float64) uint64 {
	if math.IsNaN(x) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

type solveKeyInput struct {
	node, gap, metal string
	level            int
	length, r, j0, t float64
}

func (a solveKeyInput) equal(b solveKeyInput) bool {
	return a.node == b.node && a.gap == b.gap && a.metal == b.metal &&
		a.level == b.level &&
		canonFloat(a.length) == canonFloat(b.length) &&
		canonFloat(a.r) == canonFloat(b.r) &&
		canonFloat(a.j0) == canonFloat(b.j0) &&
		canonFloat(a.t) == canonFloat(b.t)
}

func (a solveKeyInput) key() string {
	return solveKey(a.node, a.gap, a.metal, a.level, a.length, a.r, a.j0, a.t)
}

// FuzzSolveKeyEncoder locks the canonical cache-key property the cache
// depends on: key equality ⇔ input equality. A collision (different
// inputs, same key) silently serves one client another client's physics;
// a split (same inputs, different keys) silently kills the hit rate.
// The '|'-join encoding this replaced collided on selector strings that
// contain the separator — e.g. ("a", "b|c") vs ("a|b", "c") — which the
// length-prefixed encoding (and this fuzz target) rules out.
func FuzzSolveKeyEncoder(f *testing.F) {
	f.Add("0.25", "HSQ", "Cu", 5, 2e-3, 0.1, 1.8, 100.0,
		"0.25", "HSQ", "Cu", 5, 2e-3, 0.1, 1.8, 100.0)
	// The historical separator collision.
	f.Add("a", "b|c", "", 1, 1.0, 1.0, 1.0, 1.0,
		"a|b", "c", "", 1, 1.0, 1.0, 1.0, 1.0)
	// Length-prefix boundary shapes.
	f.Add("12:x", "", "", 1, 1.0, 1.0, 1.0, 1.0,
		"1", "2:x", "", 1, 1.0, 1.0, 1.0, 1.0)
	// NaNs collapse; zeros keep their sign.
	f.Add("", "", "", 0, math.NaN(), 0.0, 1.0, 1.0,
		"", "", "", 0, math.NaN(), math.Copysign(0, -1), 1.0, 1.0)
	// Level/float field boundary.
	f.Add("n", "g", "m", 12, 3.0, 1.0, 1.0, 1.0,
		"n", "g", "m", 1, 23.0, 1.0, 1.0, 1.0)

	f.Fuzz(func(t *testing.T,
		node1, gap1, metal1 string, level1 int, l1, r1, j1, t1 float64,
		node2, gap2, metal2 string, level2 int, l2, r2, j2, t2 float64) {
		a := solveKeyInput{node1, gap1, metal1, level1, l1, r1, j1, t1}
		b := solveKeyInput{node2, gap2, metal2, level2, l2, r2, j2, t2}
		ka, kb := a.key(), b.key()
		switch {
		case a.equal(b) && ka != kb:
			t.Fatalf("equal inputs produced different keys:\n%q\n%q", ka, kb)
		case !a.equal(b) && ka == kb:
			t.Fatalf("different inputs collided on key %q:\n%+v\n%+v", ka, a, b)
		}
	})
}

// FuzzDeckKeyEncoder is the same property for the netcheck deck key.
func FuzzDeckKeyEncoder(f *testing.F) {
	f.Add("0.25", "HSQ", "Cu", 1.8, "0.25", "HSQ", "Cu", 1.8)
	f.Add("a", "b|c", "", 1.0, "a|b", "c", "", 1.0)
	f.Add("", "3:abc", "", 1.0, "3:a", "bc", "", 1.0)
	f.Fuzz(func(t *testing.T,
		node1, gap1, metal1 string, j1 float64,
		node2, gap2, metal2 string, j2 float64) {
		same := node1 == node2 && gap1 == gap2 && metal1 == metal2 &&
			canonFloat(j1) == canonFloat(j2)
		ka := deckKey(node1, gap1, metal1, j1)
		kb := deckKey(node2, gap2, metal2, j2)
		switch {
		case same && ka != kb:
			t.Fatalf("equal inputs produced different keys:\n%q\n%q", ka, kb)
		case !same && ka == kb:
			t.Fatalf("different inputs collided on key %q", ka)
		}
	})
}

// TestCacheKeyBytes pins one key of each family byte for byte: a change
// in the encoding would orphan every cached entry and snapshot.
func TestCacheKeyBytes(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{solveKey("0.25", "polyimide", "Cu", 5, 2e-3, 0.1, 1.8, 100),
			"solve|4:0.25|9:polyimide|2:Cu|5|0x1.0624dd2f1a9fcp-09|0x1.999999999999ap-04|0x1.ccccccccccccdp+00|0x1.9p+06"},
		{solveKey("", "", "", -3, 0, 0, 1e-300, 5e-324),
			"solve|0:|0:|0:|-3|0x0p+00|0x0p+00|0x1.56e1fc2f8f359p-997|0x1p-1074"},
		{levelRuleKey("0.10", "", "AlCu|x", 7, 1.8, -40),
			"rule|4:0.10|0:|6:AlCu|x|7|0x1.ccccccccccccdp+00|-0x1.4p+05"},
		{deckKey("0.25", "HSQ", "", 1.5), "deck|4:0.25|3:HSQ|0:|0x1.8p+00"},
	} {
		if c.got != c.want {
			t.Errorf("key %q, want %q", c.got, c.want)
		}
	}
}

// TestCacheKeyAllocs: building a key allocates only the returned string.
func TestCacheKeyAllocs(t *testing.T) {
	for name, build := range map[string]func() string{
		"solve": func() string { return solveKey("0.25", "polyimide", "Cu", 5, 2e-3, 0.1, 1.8, 100) },
		"rule":  func() string { return levelRuleKey("0.10", "HSQ", "Cu", 7, 1.8, 100) },
		"deck":  func() string { return deckKey("0.25", "HSQ", "Cu", 1.5) },
	} {
		if got := testing.AllocsPerRun(100, func() { _ = build() }); got != 1 {
			t.Errorf("%s key: %g allocs per build, want 1", name, got)
		}
	}
}

// netcheckExecBound is the wall time one FuzzNetcheckRoute exec may
// take. With MaxSegments at routeFuzzSegments a design is at most that
// many segment solves and one deck build, milliseconds even under -race.
const (
	netcheckExecBound = 5 * time.Second
	routeFuzzSegments = 8
)

// FuzzNetcheckRoute drives raw bodies through the whole /v1/netcheck
// chain of one daemon (decode, deck, segment checks, reply) and asserts
// the route's contract:
//
//   - the status is 200, a 4xx (422 and 429 among them) or 503, never
//     a 500;
//   - the body is JSON: a 200 body strict-decodes into NetcheckResponse,
//     so no NaN or Inf token can pass, and any other body into the
//     structured error;
//   - each request finishes within netcheckExecBound.
func FuzzNetcheckRoute(f *testing.F) {
	full, err := json.Marshal(benchDesign(rand.New(rand.NewSource(benchSeed))))
	if err != nil {
		f.Fatal(err)
	}
	df := benchDesign(rand.New(rand.NewSource(benchSeed)))
	df.Segments = df.Segments[:routeFuzzSegments]
	short, err := json.Marshal(df)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(short)
	f.Add([]byte(`{"node":"0.25","segments":[` +
		`{"net":"<a&b>","name":"s\u2028>","level":5,"lengthUm":100,"waveform":{"kind":"dc","amps":0.001}},` +
		"{\"net\":\"\xff\xfe\",\"name\":\"\xe2\x80\xa8\x01\",\"level\":3,\"lengthUm\":40,\"waveform\":{\"kind\":\"bipolar\",\"peakMA\":3,\"dutyCycle\":0.2}}]}"))
	for _, seed := range readDesignSeeds(f) {
		f.Add(seed)
	}

	h := New(Config{Workers: 2, MaxSegments: routeFuzzSegments}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/netcheck", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(netcheckExecBound):
			t.Fatalf("request still running after %v\nbody %q", netcheckExecBound, body)
		}
		code := rec.Code
		if code != http.StatusOK && code != http.StatusServiceUnavailable && (code < 400 || code > 499) {
			t.Fatalf("status %d: %s\nbody %q", code, rec.Body.Bytes(), body)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		var v any = &apiError{}
		if code == http.StatusOK {
			v = &NetcheckResponse{}
		}
		if err := dec.Decode(v); err != nil || dec.More() {
			t.Fatalf("status %d: body does not strict-decode into %T (%v): %s", code, v, err, rec.Body.Bytes())
		}
		if e, ok := v.(*apiError); ok && e.Error.Code == "" {
			t.Fatalf("status %d: error body without a code", code)
		}
	})
}

// readDesignSeeds returns the netcheck package's general design seeds
// (testdata/designs.txt there), one Go-quoted design a line.
func readDesignSeeds(tb testing.TB) [][]byte {
	data, err := os.ReadFile("../netcheck/testdata/designs.txt")
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
