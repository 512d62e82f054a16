package server

import (
	"bytes"
	"encoding/json"
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
