package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
)

// wantIndented is the body writeJSON must produce for v:
// json.MarshalIndent's bytes plus a newline.
func wantIndented(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestWriteJSONMatchesMarshalIndent: the pooled encoder writes the same
// bytes MarshalIndent plus a newline gives, for every response type the
// daemon serves (each decoded from a live reply of its route), for the
// error body, for HTML-escaped text and for a body past the pooled-buffer
// cap, with encoders reused between calls.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})
	post := func(path, body string, v any) any {
		t.Helper()
		status, b := postJSON(t, ts.URL+path, body)
		if status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", path, status, b)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	get := func(path string, v any) any {
		t.Helper()
		if status := getJSON(t, ts.URL+path, v); status != http.StatusOK {
			t.Fatalf("%s: status %d", path, status)
		}
		return v
	}
	job := post("/v1/jobs", sweepJobBody, &jobs.View{}).(*jobs.View)
	pollJob(t, ts.URL, job.ID)
	var big strings.Builder
	for big.Len() <= 2*maxPooledBody {
		big.WriteString("segment <a&b>   ")
	}
	values := map[string]any{
		"rules":     post("/v1/rules", `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`, &RulesResponse{}),
		"batch":     post("/v1/batch", `{"requests":[{"node":"0.25","level":5,"dutyCycle":0.1},{"node":"0.25","level":42}]}`, &BatchResponse{}),
		"sweep":     post("/v1/sweep", `{"node":"0.25","level":5,"j0MA":0.6,"points":9}`, &SweepResponse{}),
		"netcheck":  post("/v1/netcheck", `{"node":"0.25","segments":[{"net":"clk","name":"s1","level":5,"lengthUm":3000,"waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}}]}`, &NetcheckResponse{}),
		"tech":      get("/v1/tech?node=0.10&gap=HSQ", &TechResponse{}),
		"chipcheck": post("/v1/chipcheck", `{"nx":8,"ny":8,"padRing":true,"uniformLoadA":1.2,"includeSegments":true}`, &chipcheck.Result{}),
		"lifetime":  post("/v1/lifetime", lifetimeBody, &lifetime.Report{}),
		"metrics":   get("/metrics", &Snapshot{}),
		"healthz":   get("/healthz", &map[string]any{}),
		"job view":  get("/v1/jobs/"+job.ID, &jobs.View{}),
		"job result": func() any {
			var raw json.RawMessage
			return get("/v1/jobs/"+job.ID+"/result", &raw)
		}(),
		"error":       apiError{Error: errorDetail(badRequestf("bad <field> & more"))},
		"large body":  map[string]string{"text": big.String()},
		"small again": map[string]int{"n": 1},
	}
	for _, round := range []int{1, 2} {
		for name, v := range values {
			rec := httptest.NewRecorder()
			if !writeJSON(rec, http.StatusOK, v) {
				t.Fatalf("round %d, %s: writeJSON reported no body", round, name)
			}
			if want := wantIndented(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("round %d, %s: body differs from MarshalIndent + newline\ngot  %q\nwant %q", round, name, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q", name, ct)
			}
		}
	}
	rec := httptest.NewRecorder()
	writeError(rec, badRequestf("bad <field> & more"))
	if want := wantIndented(t, apiError{Error: errorDetail(badRequestf("bad <field> & more"))}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("error body %q, want %q", rec.Body.Bytes(), want)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// counts writeJSON's own allocations.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWriteJSONAllocs bounds the allocations of one reply: encoding a
// rules response through the pooled encoder allocates only the
// Content-Type header value, where marshalling, indenting and appending
// the newline into fresh buffers cost three or more.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	v := RulesResponse{Node: "0.25", Level: 5}
	w := &discardWriter{h: http.Header{}}
	writeJSON(w, http.StatusOK, v) // warm the pool
	if got := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusOK, &v) }); got > 1 {
		t.Fatalf("writeJSON allocates %g times per reply, want ≤ 1", got)
	}
}

// checkIndented fails unless appendIndented over v's compact encoding,
// with and without the newline Encode ends it with, appends the bytes
// json.Indent appends.
func checkIndented(t *testing.T, v any) {
	t.Helper()
	compact, err := json.Marshal(v)
	if err != nil {
		return
	}
	for _, src := range [][]byte{compact, append(compact, '\n')} {
		var want bytes.Buffer
		if err := json.Indent(&want, src, "", "  "); err != nil {
			t.Fatalf("json.Indent(%q): %v", src, err)
		}
		if got := appendIndented(nil, src); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndented(%q)\ngot  %q\nwant %q", src, got, want.Bytes())
		}
	}
}

// randomJSON draws a JSON value of at most depth levels whose strings
// favour the bytes a re-indenter can trip on.
func randomJSON(r *rand.Rand, depth int) any {
	pieces := []string{`"`, `\`, `\"`, `\\`, "<", "&", "{", "}", "[", "]", ",", ":", " ", "\n", "é", " ", "a"}
	str := func() string {
		var b strings.Builder
		for n := r.Intn(6); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	k := r.Intn(8)
	if depth == 0 {
		k %= 5
	}
	switch k {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	case 3, 4:
		return str()
	case 5, 6:
		a := make([]any, r.Intn(4))
		for i := range a {
			a[i] = randomJSON(r, depth-1)
		}
		return a
	default:
		m := map[string]any{}
		for n := r.Intn(4); n > 0; n-- {
			m[str()] = randomJSON(r, depth-1)
		}
		return m
	}
}

// TestAppendIndentedMatchesIndent: the one-pass re-indent appends what
// json.Indent appends, for the shapes that need care (empty containers,
// escaped quotes and backslashes, HTML-escaped text, deep nesting) and
// for random values.
func TestAppendIndentedMatchesIndent(t *testing.T) {
	deep := any("leaf")
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			deep = []any{deep, map[string]any{}}
		} else {
			deep = map[string]any{"k": deep, "e": []any{}}
		}
	}
	for _, v := range []any{
		map[string]any{}, []any{}, []any{[]any{}, map[string]any{}},
		map[string]any{"": map[string]any{"": []any{}}},
		`a"b`, `\`, `\"`, `a\\"b`, `ends with \`, `"\\"`,
		"<a&b>", "  ", "é", "", nil, true, 1.5e-300, -0.0,
		map[string]any{`k"\`: []any{`"`, `\`, 1, nil}},
		deep,
	} {
		checkIndented(t, v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkIndented(t, randomJSON(r, 5))
	}
}

// FuzzAppendIndented: for any JSON value, appendIndented over
// json.Marshal's bytes equals json.Indent(…, "", "  ").
func FuzzAppendIndented(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `[{},[],""]`, `{"a":{"b":[1,2,{"c":null}]}}`,
		`"\"\\"`, `"\\\\\""`, `"<a&b>"`, `" "`, `[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]`,
		`{"k\"":"v\\","x":[true,false,-1.5e-7]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		checkIndented(t, v)
	})
}

// TestRulesCachedAllocs pins what a cached /v1/rules query allocates
// through the whole handler chain, the test's recorder and request
// included: a hit builds no technology and a one-task pool call derives
// no context (62 allocations before either).
func TestRulesCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	h := New(Config{Workers: 2}).Handler()
	body := []byte(`{"node":"0.10","level":7,"dutyCycle":0.2}`)
	query := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rules", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	query() // warm the caches
	if got := testing.AllocsPerRun(200, query); got > 50 {
		t.Fatalf("a cached rules query allocates %g times, want ≤ 50", got)
	}
}
