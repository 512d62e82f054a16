package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/jobs"
)

// newJobsServer builds a server with the job subsystem enabled, jobs
// journaled under a temp dir.
func newJobsServer(t *testing.T, jcfg jobs.Config) (*Server, *httptest.Server, *jobs.Manager) {
	t.Helper()
	if jcfg.Dir == "" {
		jcfg.Dir = t.TempDir()
	}
	jm, err := jobs.New(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jm.Stop)
	s := New(Config{Workers: 2, CacheEntries: 64, Jobs: jm})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, jm
}

func doRequest(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body %q: %v", body, err)
	}
	return e.Error.Code
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal
// status.
func pollJob(t *testing.T, base, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var v jobs.View
		if st := getJSON(t, base+"/v1/jobs/"+id, &v); st != http.StatusOK {
			t.Fatalf("poll status %d", st)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return jobs.View{}
}

const sweepJobBody = `{"type":"sweep","sweep":{"node":"0.10","level":4,"points":20}}`

// TestJobsDisabled: a daemon started without -jobs answers the job
// routes with 404 jobs_disabled, not 500.
func TestJobsDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", sweepJobBody},
		{http.MethodGet, "/v1/jobs/jdead", ""},
		{http.MethodGet, "/v1/jobs/jdead/result", ""},
		{http.MethodDelete, "/v1/jobs/jdead", ""},
	} {
		resp, body := doRequest(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
		if code := errorCode(t, body); code != "jobs_disabled" {
			t.Errorf("%s %s: code %q, want jobs_disabled", c.method, c.path, code)
		}
	}
}

// TestJobsLifecycleHTTP drives a sweep job end to end over HTTP:
// 202 on submit, polling to done, result fetch, and the /metrics jobs
// section.
func TestJobsLifecycleHTTP(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})

	status, body := postJSON(t, ts.URL+"/v1/jobs", sweepJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Type != jobs.TypeSweep || v.Lane != jobs.LaneBulk || v.Chunks <= 0 {
		t.Fatalf("submit view malformed: %+v", v)
	}

	final := pollJob(t, ts.URL, v.ID)
	if final.Status != jobs.StatusDone || final.Progress != 1 {
		t.Fatalf("final view: %+v", final)
	}

	var result struct {
		Points []struct {
			X   float64 `json:"x"`
			TmC float64 `json:"tmC"`
		} `json:"points"`
	}
	if st := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &result); st != http.StatusOK {
		t.Fatalf("result status %d", st)
	}
	if len(result.Points) != 20 {
		t.Fatalf("result points = %d, want 20", len(result.Points))
	}
	for _, p := range result.Points {
		if p.TmC <= 100 {
			t.Fatalf("point %+v: Tm should exceed the 100 °C reference", p)
		}
	}

	// Unknown id → 404 not_found; malformed submit → 400.
	resp, body := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/jnope", "")
	if resp.StatusCode != http.StatusNotFound || errorCode(t, body) != "not_found" {
		t.Fatalf("unknown id: %d %s", resp.StatusCode, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/jobs", `{"type":"sweep"}`)
	if status != http.StatusBadRequest || errorCode(t, body) != "invalid_request" {
		t.Fatalf("missing params: %d %s", status, body)
	}

	// The metrics document grows a jobs section with manager stats.
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Jobs == nil {
		t.Fatal("metrics: jobs section missing")
	}
	if snap.Jobs.Submitted < 1 || snap.Jobs.Manager.Done < 1 {
		t.Fatalf("metrics jobs section: %+v", snap.Jobs)
	}
}

// TestJobsResultConflictAndCancel: fetching the result of an unfinished
// job is a 409, DELETE cancels it, a second DELETE is a 409 terminal,
// and the result of a cancelled job is 422 job_failed.
func TestJobsResultConflictAndCancel(t *testing.T) {
	release := make(chan struct{})
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, faultinject.Stall(release))
	defer cancelHook()
	defer close(release)

	_, ts, _ := newJobsServer(t, jobs.Config{})

	status, body := postJSON(t, ts.URL+"/v1/jobs", sweepJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	json.Unmarshal(body, &v)

	resp, body := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict || errorCode(t, body) != "not_done" {
		t.Fatalf("early result: %d %s", resp.StatusCode, body)
	}

	resp, body = doRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	final := pollJob(t, ts.URL, v.ID)
	if final.Status != jobs.StatusCancelled {
		t.Fatalf("post-cancel status %q", final.Status)
	}

	resp, body = doRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, "")
	if resp.StatusCode != http.StatusConflict || errorCode(t, body) != "terminal" {
		t.Fatalf("double cancel: %d %s", resp.StatusCode, body)
	}
	resp, body = doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", "")
	if resp.StatusCode != http.StatusUnprocessableEntity || errorCode(t, body) != "job_failed" {
		t.Fatalf("cancelled result: %d %s", resp.StatusCode, body)
	}
}

// TestJobsQueueFullRetryAfter: lane overflow surfaces as 429 with a
// Retry-After header, like every other backpressure rejection.
func TestJobsQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, faultinject.Stall(release))
	defer cancelHook()
	defer close(release)

	_, ts, jm := newJobsServer(t, jobs.Config{QueueDepth: 1})

	// First job occupies the worker; wait for it to leave the queue.
	status, body := postJSON(t, ts.URL+"/v1/jobs", sweepJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", status, body)
	}
	var first jobs.View
	json.Unmarshal(body, &first)
	for {
		v, err := jm.Get(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == jobs.StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Second fills the depth-1 bulk queue; third overflows.
	if status, body = postJSON(t, ts.URL+"/v1/jobs", sweepJobBody); status != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", status, body)
	}
	resp, body := doRequest(t, http.MethodPost, ts.URL+"/v1/jobs", sweepJobBody)
	if resp.StatusCode != http.StatusTooManyRequests || errorCode(t, body) != "queue_full" {
		t.Fatalf("overflow: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overflow response missing Retry-After")
	}
}

// mcJobBody: 3072 samples / 3 chunks of reproducible Monte Carlo — big
// enough to checkpoint mid-run, small enough for CI.
const mcJobBody = `{"type":"montecarlo","montecarlo":{"node":"0.10","samples":3072,"seed":7,"widthSigma":0.05,"thickSigma":0.05}}`

// stallAfterN passes the first n firings of a fault site, then blocks
// until release closes or the operation's context ends.
func stallAfterN(n int, release <-chan struct{}) faultinject.Hook {
	var fired atomic.Int64
	return func(ctx context.Context) error {
		if fired.Add(1) <= int64(n) {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestChaosJobResumeOverHTTP kills the daemon mid-job and proves the
// full HTTP story: a new server over the same journal dir resumes the
// job under the same id and serves a result byte-identical to an
// uninterrupted run.
func TestChaosJobResumeOverHTTP(t *testing.T) {
	// Control: the same submission, uninterrupted, on a throwaway manager.
	var want []byte
	{
		_, ts, _ := newJobsServer(t, jobs.Config{})
		status, body := postJSON(t, ts.URL+"/v1/jobs", mcJobBody)
		if status != http.StatusAccepted {
			t.Fatalf("control submit: %d %s", status, body)
		}
		var v jobs.View
		json.Unmarshal(body, &v)
		pollJob(t, ts.URL, v.ID)
		resp, result := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("control result: %d %s", resp.StatusCode, result)
		}
		want = result
	}

	// Chaos run: let two of three chunks checkpoint, then crash.
	dir := t.TempDir()
	release := make(chan struct{})
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfterN(2, release))

	jm1, err := jobs.New(jobs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, CacheEntries: 64, Jobs: jm1})
	ts1 := httptest.NewServer(s1.Handler())

	status, body := postJSON(t, ts1.URL+"/v1/jobs", mcJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	json.Unmarshal(body, &v)
	deadline := time.Now().Add(time.Minute)
	for {
		var cur jobs.View
		getJSON(t, ts1.URL+"/v1/jobs/"+v.ID, &cur)
		if cur.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached 2 completed chunks")
		}
		time.Sleep(2 * time.Millisecond)
	}
	jm1.Kill() // abandon without any journal write — simulated power loss
	ts1.Close()
	cancelHook()
	close(release)

	// Restart over the same journal dir: the job must come back queued,
	// resume, and finish bit-identically.
	jm2, err := jobs.New(jobs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jm2.Stop)
	s2 := New(Config{Workers: 2, CacheEntries: 64, Jobs: jm2})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	if st := jm2.Stats(); st.ResumedBoot != 1 || st.CorruptBoot != 0 {
		t.Fatalf("boot stats: %+v", st)
	}
	final := pollJob(t, ts2.URL, v.ID)
	if final.Status != jobs.StatusDone || !final.Resumed {
		t.Fatalf("resumed job final view: %+v", final)
	}
	resp, got := doRequest(t, http.MethodGet, ts2.URL+"/v1/jobs/"+v.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed result: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestChaosJobInteractiveLatency is the lane-isolation acceptance check:
// with a chip-scale Monte Carlo job running on the bulk lane, /v1/rules
// p99 must stay within 2x of the idle p99 plus a fixed scheduling
// allowance (the absolute term keeps single-core CI boxes, where the job
// genuinely shares the one CPU with the handler, from flaking on
// microsecond baselines).
func TestChaosJobInteractiveLatency(t *testing.T) {
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
		`{"type":"montecarlo","montecarlo":{"node":"0.25","samples":100000,"seed":3,"widthSigma":0.05}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v jobs.View
	json.Unmarshal(body, &v)
	// Make sure the job is actually computing while we measure.
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
		t.Fatalf("chip-scale job finished before the loaded measurement (status %v, err %v) — grow it", cur.Status, err)
	}
	if err := jm.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}

	limit := 2*idle + 25*time.Millisecond
	t.Logf("p99 idle=%s loaded=%s limit=%s", idle, loaded, limit)
	if loaded > limit {
		t.Fatalf("interactive p99 %s exceeds %s (2x idle %s + 25ms) under a running bulk job", loaded, limit, idle)
	}
}
