package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
)

const chipBody = `{"nx":12,"ny":12,"padRing":true,"uniformLoadA":1.2,"loads":[{"i":5,"j":5,"amps":0.3}],"includeSegments":true}`

func TestChipcheckEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/chipcheck", chipBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res chipcheck.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !res.Summary.Converged {
		t.Fatalf("12×12 fixture must converge: %+v", res.Summary)
	}
	if res.Summary.Nodes != 144 || res.Summary.Branches != 264 {
		t.Fatalf("summary geometry wrong: %+v", res.Summary)
	}
	if got := res.Summary.Idle + res.Summary.Immortal + res.Summary.Pass + res.Summary.Fail; got != res.Summary.Branches {
		t.Fatalf("verdict counts sum to %d, want %d", got, res.Summary.Branches)
	}
	if len(res.Segments) != res.Summary.Branches {
		t.Fatalf("includeSegments: got %d segments, want %d", len(res.Segments), res.Summary.Branches)
	}
	if s.metrics.Chipchecks.Load() != 1 || s.metrics.ChipSegments.Load() != 264 {
		t.Fatalf("metrics not bumped: checks=%d segments=%d",
			s.metrics.Chipchecks.Load(), s.metrics.ChipSegments.Load())
	}
}

func TestChipcheckEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed json", `{"nx":12,`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", `{"nx":12,"ny":12,"padRing":true,"bogus":1}`, http.StatusBadRequest, "invalid_request"},
		{"bad grid", `{"nx":0,"ny":12,"padRing":true}`, http.StatusBadRequest, "invalid_request"},
		{"no pads", `{"nx":12,"ny":12}`, http.StatusBadRequest, "invalid_request"},
		{"nan pitch", `{"nx":12,"ny":12,"padRing":true,"pitchXUm":-1}`, http.StatusBadRequest, "invalid_request"},
		{"bad tech", `{"node":"0.18","nx":12,"ny":12,"padRing":true}`, http.StatusBadRequest, "invalid_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/chipcheck", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %q", status, tc.status, body)
			}
			if code := errorCode(t, body); code != tc.code {
				t.Fatalf("code %q, want %s", code, tc.code)
			}
		})
	}
}

// nearIdleBody loads the 12×12 pad-ring grid with one 1e-155 A sink:
// its currents are too small for Black's law to bound in float64, so
// EM cannot act on any segment.
const nearIdleBody = `{"nx":12,"ny":12,"padRing":true,"loads":[{"i":5,"j":5,"amps":1e-155}]}`

// TestChipcheckNearIdleLoad: a near-idle chip is well posed, so it gets
// a 200 with finite numbers and every segment idle — not a 422.
func TestChipcheckNearIdleLoad(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/chipcheck", nearIdleBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res chipcheck.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Summary.Idle != res.Summary.Branches || res.Summary.Branches != 264 {
		t.Fatalf("idle %d of %d branches, want all 264", res.Summary.Idle, res.Summary.Branches)
	}
	if !res.Summary.OK {
		t.Fatalf("near-idle chip must pass signoff: %+v", res.Summary)
	}
}

// TestChipcheckJobNearIdleLoad: the same near-idle params as a job must
// finish done, with the same all-idle summary.
func TestChipcheckJobNearIdleLoad(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})
	status, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"type":"chipcheck","lane":"bulk","chipcheck":`+nearIdleBody+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	fin := pollJob(t, ts.URL, v.ID)
	if fin.Status != jobs.StatusDone {
		t.Fatalf("job %s: %q", fin.Status, fin.Error)
	}
	var res chipcheck.Result
	if st := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &res); st != http.StatusOK {
		t.Fatalf("result status %d", st)
	}
	if res.Summary.Idle != res.Summary.Branches || res.Summary.Branches != 264 {
		t.Fatalf("idle %d of %d branches, want all 264", res.Summary.Idle, res.Summary.Branches)
	}
}

// TestWriteJSONNonFinite: a reply JSON cannot carry (an Inf) must be a
// structured 422 numeric_failure, not a 200 with an empty body.
func TestWriteJSONNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	if writeJSON(rec, http.StatusOK, map[string]float64{"ratio": math.Inf(1)}) {
		t.Error("writeJSON reported an unencodable body as written")
	}
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %q", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec.Body.Bytes()); code != "numeric_failure" {
		t.Fatalf("code %q, want numeric_failure", code)
	}
}

// TestChipcheckCapRedirectsToJobs: grids above MaxChipNodes must be
// rejected before any numeric work, with a hint naming the bulk-lane
// job type. The cap is checked after Compile, so malformed big grids
// still surface their validation error, not the cap message.
func TestChipcheckCapRedirectsToJobs(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 16, MaxChipNodes: 100})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status, body := postJSON(t, ts.URL+"/v1/chipcheck", chipBody) // 144 nodes > 100
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "invalid_request" {
		t.Fatalf("code %q", e.Error.Code)
	}
	if want := `submit a "chipcheck" job instead`; !strings.Contains(e.Error.Message, want) {
		t.Fatalf("cap error %q does not point at the job lane (%q)", e.Error.Message, want)
	}
	if s.metrics.Chipchecks.Load() != 0 {
		t.Fatalf("capped request must not count as a completed check")
	}
}

// TestChipcheckJobOverHTTP drives the async path end to end: submit a
// chipcheck job, poll to done, fetch the result, and check it decodes
// to the same summary the sync endpoint produces for the same params.
func TestChipcheckJobOverHTTP(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})
	status, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"type":"chipcheck","lane":"bulk","chipcheck":`+chipBody+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Lane != jobs.LaneBulk || v.Chunks != 1 {
		t.Fatalf("view = %+v, want bulk lane, 1 chunk", v)
	}
	fin := pollJob(t, ts.URL, v.ID)
	if fin.Status != jobs.StatusDone {
		t.Fatalf("job %s: %q", fin.Status, fin.Error)
	}
	var jres chipcheck.Result
	if st := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &jres); st != http.StatusOK {
		t.Fatalf("result status %d", st)
	}
	syncStatus, syncBody := postJSON(t, ts.URL+"/v1/chipcheck", chipBody)
	if syncStatus != http.StatusOK {
		t.Fatalf("sync: %d %s", syncStatus, syncBody)
	}
	var sres chipcheck.Result
	if err := json.Unmarshal(syncBody, &sres); err != nil {
		t.Fatal(err)
	}
	if jres.Summary != sres.Summary {
		t.Fatalf("job summary differs from sync summary:\n job %+v\nsync %+v", jres.Summary, sres.Summary)
	}
}

// TestChaosChipcheckInteractiveLatency pins the PR 6 lane-isolation
// bound against the heaviest job type: while a chip-scale chipcheck job
// is mid-flight on the bulk lane, interactive /v1/rules p99 must stay
// within 2× its idle value + 25ms of scheduling slack.
func TestChaosChipcheckInteractiveLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency chaos test skipped in -short mode")
	}
	_, ts, jm := newJobsServer(t, jobs.Config{})
	rules := `{"node":"0.10","level":7,"dutyCycle":0.2,"j0MA":1.0}`

	p99 := func(label string) time.Duration {
		const n = 60
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			status, body := postJSON(t, ts.URL+"/v1/rules", rules)
			if status != http.StatusOK {
				t.Fatalf("%s: /v1/rules %d %s", label, status, body)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	idle := p99("idle")

	status, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"type":"chipcheck","lane":"bulk","chipcheck":{"nx":101,"ny":900,"padRing":true,"widthMultiple":8,"uniformLoadA":60}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	json.Unmarshal(body, &v)
	for {
		cur, err := jm.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == jobs.StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	loaded := p99("loaded")
	if cur, err := jm.Get(v.ID); err != nil || cur.Status != jobs.StatusRunning {
		t.Fatalf("chipcheck job finished before the loaded measurement (status %v, err %v) — grow the grid", cur.Status, err)
	}
	if err := jm.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}

	limit := 2*idle + 25*time.Millisecond
	t.Logf("p99 idle=%s loaded=%s limit=%s", idle, loaded, limit)
	if loaded > limit {
		t.Fatalf("interactive p99 %s exceeds %s (2x idle %s + 25ms) under a running chipcheck job", loaded, limit, idle)
	}
}
