package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsmtherm/internal/jobs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 4, CacheEntries: 256})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode
}

func TestRulesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/rules", `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp RulesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("first request should not be a cache hit")
	}
	// Physics sanity: the self-consistent limit sits above Tref and below
	// the naive EM-only rule.
	if resp.Solve.TmC <= 100 {
		t.Errorf("Tm %.1f °C should exceed the 100 °C reference", resp.Solve.TmC)
	}
	if resp.Solve.Derating <= 0 || resp.Solve.Derating > 1 {
		t.Errorf("derating %v outside (0,1]", resp.Solve.Derating)
	}
	if resp.Solve.JpeakMA <= 0 || resp.Solve.JpeakMA > resp.Solve.EMOnlyJpeakMA {
		t.Errorf("jpeak %v not in (0, naive %v]", resp.Solve.JpeakMA, resp.Solve.EMOnlyJpeakMA)
	}
	// Deck row rides along and matches the level.
	if resp.Rule.Level != 5 || resp.Rule.SignalJpeakMA <= 0 || resp.Rule.HealingLengthUm <= 0 {
		t.Errorf("deck rule malformed: %+v", resp.Rule)
	}
	// The signal rule at the default duty cycle is the same solve.
	if diff := resp.Rule.SignalJpeakMA - resp.Solve.JpeakMA; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("deck signal jpeak %v != solve jpeak %v", resp.Rule.SignalJpeakMA, resp.Solve.JpeakMA)
	}
}

// TestRulesCacheHitViaMetrics is the acceptance check: a repeated
// identical /v1/rules request is answered from the cache, observable on
// /metrics.
func TestRulesCacheHitViaMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"node":"0.10","level":7,"dutyCycle":0.2,"j0MA":1.0}`

	var before Snapshot
	getJSON(t, ts.URL+"/metrics", &before)

	status, body := postJSON(t, ts.URL+"/v1/rules", req)
	if status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, body)
	}
	var first RulesResponse
	json.Unmarshal(body, &first)
	if first.Cached {
		t.Fatal("first request must miss")
	}

	status, body = postJSON(t, ts.URL+"/v1/rules", req)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, body)
	}
	var second RulesResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical second request should be a cache hit")
	}
	if second.Solve != first.Solve {
		t.Errorf("cached solve differs: %+v vs %+v", second.Solve, first.Solve)
	}

	var after Snapshot
	getJSON(t, ts.URL+"/metrics", &after)
	if after.Cache.Hits <= before.Cache.Hits {
		t.Errorf("cache hits did not advance: before %d after %d", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Solver.CacheHits == 0 {
		t.Error("solver cacheHits counter did not advance")
	}
	if after.Solver.Solves != before.Solver.Solves+1 {
		t.Errorf("want exactly one real solve, got %d -> %d", before.Solver.Solves, after.Solver.Solves)
	}
	ep, ok := after.Endpoints["/v1/rules"]
	if !ok || ep.Requests < 2 {
		t.Errorf("endpoint stats missing or low: %+v", after.Endpoints)
	}
}

// TestRulesTrefDistinctCacheKeys guards the rule-cache key scheme: two
// requests differing only in trefC must not collide on one cached deck
// row (the generated rule depends on Spec.Tref — signal/power limits,
// Tm, Blech length and ESD widths all shift with it).
func TestRulesTrefDistinctCacheKeys(t *testing.T) {
	_, ts := newTestServer(t)
	rules := func(trefC float64) RulesResponse {
		t.Helper()
		body := fmt.Sprintf(`{"node":"0.25","level":5,"trefC":%g}`, trefC)
		status, b := postJSON(t, ts.URL+"/v1/rules", body)
		if status != http.StatusOK {
			t.Fatalf("trefC=%g: status %d: %s", trefC, status, b)
		}
		var resp RulesResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hot := rules(100)
	cold := rules(50) // same request except trefC — must not hit hot's entry
	if cold.Rule == hot.Rule {
		t.Fatalf("rule row identical across trefC 100 vs 50 — cache key collision: %+v", hot.Rule)
	}
	if cold.Rule.SignalTmC >= hot.Rule.SignalTmC {
		t.Errorf("signal Tm at trefC=50 (%.1f) should sit below trefC=100 (%.1f)",
			cold.Rule.SignalTmC, hot.Rule.SignalTmC)
	}
	// And the cached second read of each must return its own row.
	if again := rules(50); again.Rule != cold.Rule {
		t.Errorf("repeated trefC=50 request returned a different row: %+v vs %+v", again.Rule, cold.Rule)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/sweep", `{"node":"0.25","level":5,"j0MA":0.6,"points":9}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 9 {
		t.Fatalf("want 9 points, got %d", len(resp.Points))
	}
	// Ordering is the request grid (ascending r), and jpeak decreases
	// with duty cycle while jrms-at-limit grows toward the DC limit.
	for i := 1; i < len(resp.Points); i++ {
		if resp.Points[i].R <= resp.Points[i-1].R {
			t.Fatalf("points out of order: r[%d]=%g <= r[%d]=%g", i, resp.Points[i].R, i-1, resp.Points[i-1].R)
		}
		if resp.Points[i].JpeakMA >= resp.Points[i-1].JpeakMA {
			t.Errorf("jpeak should fall with r: %v -> %v", resp.Points[i-1].JpeakMA, resp.Points[i].JpeakMA)
		}
	}
	// Explicit duty cycles round-trip in order.
	status, body = postJSON(t, ts.URL+"/v1/sweep", `{"level":5,"dutyCycles":[0.5,0.1,1]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	got := []float64{resp.Points[0].R, resp.Points[1].R, resp.Points[2].R}
	if got[0] != 0.5 || got[1] != 0.1 || got[2] != 1 {
		t.Errorf("explicit duty cycles reordered: %v", got)
	}
}

func TestNetcheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	design := `{
		"node": "0.25",
		"segments": [
			{"net":"clk","name":"s1","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}},
			{"net":"abuse","name":"hot","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":60,"dutyCycle":0.12}}
		]
	}`
	status, body := postJSON(t, ts.URL+"/v1/netcheck", design)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp NetcheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Worst != "FAIL" || resp.Segments != 2 {
		t.Fatalf("unexpected outcome: %+v", resp)
	}
	if resp.ByNet["abuse"] != "FAIL" || resp.ByNet["clk"] != "PASS" {
		t.Errorf("per-net verdicts wrong: %v", resp.ByNet)
	}
	// Report order is worst-first.
	if resp.Findings[0].Verdict != "FAIL" || resp.Findings[0].Net != "abuse" {
		t.Errorf("worst finding not first: %+v", resp.Findings[0])
	}
	if resp.DeckCached {
		t.Error("first netcheck should build the deck")
	}
	// Same design again: the deck comes from the cache.
	status, body = postJSON(t, ts.URL+"/v1/netcheck", design)
	if status != http.StatusOK {
		t.Fatalf("second status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.DeckCached {
		t.Error("second netcheck should reuse the cached deck")
	}
}

func TestTechEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var resp TechResponse
	if status := getJSON(t, ts.URL+"/v1/tech?node=0.10&gap=HSQ", &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.HasPrefix(resp.Name, "NTRS-0.10um") || len(resp.Layers) != 8 || resp.Gap != "HSQ" {
		t.Fatalf("unexpected tech: %+v", resp)
	}
	for _, l := range resp.Layers {
		if l.WidthUm <= 0 || l.SheetOhmsPerSq <= 0 || l.HealingLengthUm <= 0 {
			t.Errorf("layer %d malformed: %+v", l.Level, l)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var resp map[string]any
	if status := getJSON(t, ts.URL+"/healthz", &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp["status"] != "ok" {
		t.Errorf("health %v", resp)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, url, body string
		wantStatus      int
		wantCode        string
	}{
		{"bad json", "/v1/rules", `{"node":`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", "/v1/rules", `{"nodule":"0.25"}`, http.StatusBadRequest, "invalid_request"},
		{"unknown node", "/v1/rules", `{"node":"0.07","level":1}`, http.StatusBadRequest, "invalid_request"},
		{"bad level", "/v1/rules", `{"node":"0.25","level":42}`, http.StatusBadRequest, "invalid_request"},
		{"bad duty cycle", "/v1/rules", `{"node":"0.25","level":5,"dutyCycle":7}`, http.StatusBadRequest, "invalid_request"},
		{"bad metal", "/v1/rules", `{"node":"0.25","level":5,"metal":"unobtainium"}`, http.StatusBadRequest, "invalid_request"},
		{"no solution", "/v1/rules", `{"node":"0.25","level":5,"j0MA":1e9}`, http.StatusUnprocessableEntity, "no_solution"},
		{"netcheck bad node", "/v1/netcheck", `{"node":"1.21","segments":[]}`, http.StatusBadRequest, "invalid_request"},
		{"sweep bad r", "/v1/sweep", `{"level":5,"dutyCycles":[0.5,-2]}`, http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+tc.url, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d want %d: %s", status, tc.wantStatus, body)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("code %q want %q (message %q)", e.Error.Code, tc.wantCode, e.Error.Message)
			}
			if e.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	// Method mismatch: GET on a POST route.
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/rules: %d want 405", resp.StatusCode)
	}
}

// TestRulesRejectMessages pins the 400 messages of rules queries that
// prepareRules validates without a technology: a rejected query still
// gets tech.Line's (or the material lookup's) own words.
func TestRulesRejectMessages(t *testing.T) {
	h := New(Config{Workers: 2}).Handler()
	for body, want := range map[string]string{
		`{"node":"0.25","level":0}`:                                  "ntrs: NTRS-0.25um has no level 0 (1..6)",
		`{"node":"0.10","level":9,"gap":"polyimide","metal":"AlCu"}`: "ntrs: NTRS-0.10um/Polyimide/AlCu has no level 9 (1..8)",
		`{"node":"0.25","level":3,"gap":"aerogel"}`:                  `material: unknown dielectric "aerogel"`,
		`{"node":"0.25","level":3,"metal":"Ag"}`:                     `material: unknown metal "Ag"`,
		`{"node":"0.25","level":3,"lengthUm":0}`:                     "geometry: invalid parameters: non-positive dimension W=4.5e-07 t=8.1e-07 L=0",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rules", strings.NewReader(body)))
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if want = "server: bad request: " + want; e.Error.Message != want {
			t.Errorf("%s: message %q, want %q", body, e.Error.Message, want)
		}
	}
}

func TestErrorsCountedInMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/rules", `{"node":"0.07"}`)
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if ep := snap.Endpoints["/v1/rules"]; ep.Errors == 0 {
		t.Errorf("error not counted: %+v", ep)
	}
}

// TestGracefulShutdownDrains covers the daemon's drain semantics: with a
// request held in flight, cancelling the run context (what SIGINT/SIGTERM
// do in cmd/dsmthermd) must let the request finish with 200 before Run
// returns.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, DrainTimeout: 5 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	var once bool
	s.testHookStarted = func(route string) {
		if route == "/healthz" && !once {
			once = true
			close(started)
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	<-started // request is in flight
	cancel()  // "SIGTERM"

	select {
	case err := <-runDone:
		t.Fatalf("Run returned before draining the in-flight request: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if status := <-reqDone; status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", status)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// TestShutdownRejectsNewWorkWhileDraining pins the shutdown ordering:
// the drain flag rises BEFORE the listener starts closing, so a request
// arriving during teardown gets a structured 503 ("draining") with a
// Retry-After header instead of racing a connection reset — while
// requests already in flight drain to completion and Run returns nil.
func TestShutdownRejectsNewWorkWhileDraining(t *testing.T) {
	s := New(Config{Workers: 2, DrainTimeout: 5 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	var once bool
	s.testHookStarted = func(route string) {
		if route == "/healthz" && !once {
			once = true
			close(started)
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	// Hold request A in flight (past the drain gate).
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-started

	cancel() // "SIGTERM"
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never rose after Run ctx cancel")
		}
		time.Sleep(time.Millisecond)
	}

	// Request B lands during the drain. Exercised against the handler
	// directly (the listener may already be mid-close, which is exactly
	// the race the drain flag exists to mask from clients).
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rules",
		strings.NewReader(`{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining request: status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Error("draining 503 is missing Retry-After")
	}
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("draining 503 body is not structured JSON: %v\n%s", err, rec.Body.String())
	}
	if apiErr.Error.Code != "draining" {
		t.Errorf("error code = %q, want \"draining\"", apiErr.Error.Code)
	}
	if got := s.metrics.RejectedDraining.Load(); got == 0 {
		t.Error("RejectedDraining counter did not advance")
	}

	// /metrics stays readable during the drain.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/metrics during drain: status %d, want 200", rec.Code)
	}

	// Request A (in flight before the flag rose) completes normally.
	close(release)
	if status := <-reqDone; status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", status)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// TestRequestBodyLimit verifies oversized bodies are rejected, not read.
func TestRequestBodyLimit(t *testing.T) {
	s := New(Config{MaxBodyBytes: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := fmt.Sprintf(`{"node":"0.25","level":5,"gap":%q}`, strings.Repeat("x", 2048))
	status, _ := postJSON(t, ts.URL+"/v1/rules", big)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", status)
	}
}

// TestSweepPointsValidation is the headline regression test for the
// pre-validation bug: a hostile or fat-fingered "points" must be
// rejected with a structured 400 BEFORE any grid is materialized — a
// negative count used to reach core.Fig2DutyCycles's make() and panic
// the handler, and a huge one allocated gigabytes before failing.
func TestSweepPointsValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, points := range []int{-2, -1, 0, 1, 2000000000} {
		t.Run(fmt.Sprintf("points=%d", points), func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/sweep",
				fmt.Sprintf(`{"level":5,"points":%d}`, points))
			if status != http.StatusBadRequest {
				t.Fatalf("points=%d: status %d want 400: %s", points, status, body)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("400 body not structured JSON: %s", body)
			}
			if e.Error.Code != "invalid_request" {
				t.Errorf("code %q want invalid_request", e.Error.Code)
			}
		})
	}
	// The boundary itself is legal: points=2 sweeps both endpoints.
	status, body := postJSON(t, ts.URL+"/v1/sweep", `{"level":5,"points":2}`)
	if status != http.StatusOK {
		t.Fatalf("points=2: status %d: %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 {
		t.Errorf("points=2 returned %d rows", len(resp.Points))
	}
}

// TestRulesZeroVsAbsentDefaults pins the pointer-or-presence
// defaulting: an explicit zero is the client's value — honored when
// legal (trefC: 0 is a real 0 °C corner), rejected when invalid
// (dutyCycle/j0MA/lengthUm of 0) — never silently replaced by the
// default the way zero-valued struct fields used to be.
func TestRulesZeroVsAbsentDefaults(t *testing.T) {
	_, ts := newTestServer(t)

	// trefC:0 is legal (273.15 K) and must differ from the 100 °C default.
	status, body := postJSON(t, ts.URL+"/v1/rules", `{"node":"0.25","level":5,"trefC":0}`)
	if status != http.StatusOK {
		t.Fatalf("trefC=0: status %d: %s", status, body)
	}
	var cold RulesResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, ts.URL+"/v1/rules", `{"node":"0.25","level":5}`)
	if status != http.StatusOK {
		t.Fatalf("default tref: status %d: %s", status, body)
	}
	var def RulesResponse
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	if cold.Solve == def.Solve {
		t.Error("trefC:0 returned the 100 °C default solve — explicit zero was swallowed")
	}
	if cold.Solve.TmC >= def.Solve.TmC {
		t.Errorf("Tm at trefC=0 (%.1f) should sit below trefC=100 (%.1f)", cold.Solve.TmC, def.Solve.TmC)
	}

	// Explicit zeros in fields where zero is invalid are rejected, not
	// papered over with the default.
	for _, tc := range []struct{ name, body string }{
		{"dutyCycle", `{"node":"0.25","level":5,"dutyCycle":0}`},
		{"j0MA", `{"node":"0.25","level":5,"j0MA":0}`},
		{"lengthUm", `{"node":"0.25","level":5,"lengthUm":0}`},
	} {
		t.Run(tc.name+"=0", func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/rules", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("explicit %s=0: status %d want 400: %s", tc.name, status, body)
			}
		})
	}

	// Absent and explicitly-default requests are the same canonical
	// query (same solve, answered from the same cache entry).
	status, body = postJSON(t, ts.URL+"/v1/rules",
		`{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8,"trefC":100,"lengthUm":2000}`)
	if status != http.StatusOK {
		t.Fatalf("explicit defaults: status %d: %s", status, body)
	}
	var explicit RulesResponse
	if err := json.Unmarshal(body, &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.Solve != def.Solve {
		t.Errorf("explicit-default solve differs from absent-default solve:\n%+v\n%+v",
			explicit.Solve, def.Solve)
	}
	if !explicit.Cached {
		t.Error("explicit-default request missed the cache entry the absent-default request filled")
	}
}

// TestBatchEndpoint covers /v1/batch: request-order results, dedup of
// identical entries, and per-entry error isolation.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/batch", `{"requests":[
		{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8},
		{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8},
		{"node":"0.25","level":3,"dutyCycle":0.3,"j0MA":1.8},
		{"node":"0.25","level":42},
		{"node":"0.25","level":5,"j0MA":1e9}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests != 5 || len(resp.Results) != 5 {
		t.Fatalf("want 5 results, got requests=%d results=%d", resp.Requests, len(resp.Results))
	}
	// Entries 0 and 1 are identical → one is folded onto the other; the
	// invalid level-42 entry is NOT counted as deduped.
	if resp.Unique != 3 || resp.Deduped != 1 {
		t.Errorf("unique=%d deduped=%d, want 3/1", resp.Unique, resp.Deduped)
	}
	for i := 0; i < 3; i++ {
		if resp.Results[i].Rules == nil || resp.Results[i].Error != nil {
			t.Fatalf("entry %d should have succeeded: %+v", i, resp.Results[i])
		}
	}
	if resp.Results[0].Rules.Solve != resp.Results[1].Rules.Solve {
		t.Error("duplicate entries returned different solves")
	}
	if resp.Results[2].Rules.Level != 3 {
		t.Errorf("results out of request order: entry 2 has level %d", resp.Results[2].Rules.Level)
	}
	// Per-entry failures carry their own structured code and do not fail
	// their siblings.
	if resp.Results[3].Error == nil || resp.Results[3].Error.Code != "invalid_request" {
		t.Errorf("invalid entry: %+v, want invalid_request", resp.Results[3])
	}
	if resp.Results[4].Error == nil || resp.Results[4].Error.Code != "no_solution" {
		t.Errorf("runaway entry: %+v, want no_solution", resp.Results[4])
	}

	// Envelope validation: empty batches and oversized batches are 400s.
	status, _ = postJSON(t, ts.URL+"/v1/batch", `{"requests":[]}`)
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d want 400", status)
	}
	s2 := New(Config{Workers: 2, MaxBatch: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	status, body = postJSON(t, ts2.URL+"/v1/batch",
		`{"requests":[{"level":1},{"level":2},{"level":3}]}`)
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d want 400: %s", status, body)
	}
}

// TestBatchSharesCacheWithRules verifies batch entries and /v1/rules
// answer from the same cache (same canonical keys).
func TestBatchSharesCacheWithRules(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/rules", `{"node":"0.10","level":4,"dutyCycle":0.2,"j0MA":1.0}`)
	if status != http.StatusOK {
		t.Fatalf("rules: %d %s", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/batch",
		`{"requests":[{"node":"0.10","level":4,"dutyCycle":0.2,"j0MA":1.0}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Rules == nil {
		t.Fatalf("batch result malformed: %+v", resp)
	}
	if !resp.Results[0].Rules.Cached {
		t.Error("batch entry missed the cache entry /v1/rules filled")
	}
}

// TestNetcheckSegmentLimit verifies the netcheck fan-out cap.
func TestNetcheckSegmentLimit(t *testing.T) {
	s := New(Config{MaxSegments: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	design := `{
		"node": "0.25",
		"segments": [
			{"net":"a","name":"s1","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}},
			{"net":"b","name":"s2","level":5,"widthMultiple":1,"lengthUm":3000,
			 "waveform":{"kind":"bipolar","peakMA":1.0,"dutyCycle":0.12}}
		]
	}`
	status, body := postJSON(t, ts.URL+"/v1/netcheck", design)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d want 400: %s", status, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("400 body not structured JSON: %s", body)
	}
	if e.Error.Code != "invalid_request" {
		t.Errorf("code %q want invalid_request", e.Error.Code)
	}
}

// TestSweepPointLimit verifies the fan-out bound.
func TestSweepPointLimit(t *testing.T) {
	s := New(Config{MaxSweepPoints: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var buf bytes.Buffer
	buf.WriteString(`{"level":5,"dutyCycles":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%g", 0.1+float64(i)*0.1)
	}
	buf.WriteString(`]}`)
	status, body := postJSON(t, ts.URL+"/v1/sweep", buf.String())
	if status != http.StatusBadRequest {
		t.Fatalf("status %d want 400: %s", status, body)
	}
}

// TestReadyz pins the liveness/readiness split: /readyz flips to 503
// while the boot snapshot is loading or while the daemon drains, while
// /healthz keeps answering 200 (pure liveness) in both states.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t)

	var st struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/readyz", &st); status != http.StatusOK || st.Status != "ready" {
		t.Fatalf("fresh server readyz = %d %q, want 200 ready", status, st.Status)
	}

	s.loading.Store(true)
	if status := getJSON(t, ts.URL+"/readyz", &st); status != http.StatusServiceUnavailable || st.Status != "loading" {
		t.Errorf("loading readyz = %d %q, want 503 loading", status, st.Status)
	}
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("healthz during load = %d, want 200 (liveness is not readiness)", status)
	}
	s.loading.Store(false)

	s.draining.Store(true)
	if status := getJSON(t, ts.URL+"/readyz", &st); status != http.StatusServiceUnavailable || st.Status != "draining" {
		t.Errorf("draining readyz = %d %q, want 503 draining", status, st.Status)
	}
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", status)
	}
	s.draining.Store(false)
	if status := getJSON(t, ts.URL+"/readyz", &st); status != http.StatusOK || st.Status != "ready" {
		t.Errorf("recovered readyz = %d %q, want 200 ready", status, st.Status)
	}
}

// TestNodeVocabularyEveryRoute pins one node vocabulary across every
// route and job type that takes a node: each answers "0.5" with a 400
// invalid_request and accepts "250" and "0.1", and /v1/netcheck, like
// the rest, reads an omitted node as 0.25.
func TestNodeVocabularyEveryRoute(t *testing.T) {
	_, ts, _ := newJobsServer(t, jobs.Config{})
	const (
		seg  = `{"net":"n","name":"s","level":3,"widthMultiple":1,"lengthUm":500,"waveform":{"kind":"dc","amps":1e-4}}`
		chip = `{"node":"NODE","nx":6,"ny":6,"padRing":true,"uniformLoadA":0.01}`
	)
	for _, rt := range []struct {
		method, path, body string // NODE stands for the node name
		ok                 int
	}{
		{http.MethodPost, "/v1/rules", `{"node":"NODE","level":3}`, http.StatusOK},
		{http.MethodPost, "/v1/sweep", `{"node":"NODE","level":3,"points":2}`, http.StatusOK},
		{http.MethodGet, "/v1/tech?node=NODE", "", http.StatusOK},
		{http.MethodPost, "/v1/netcheck", `{"node":"NODE","segments":[` + seg + `]}`, http.StatusOK},
		{http.MethodPost, "/v1/chipcheck", chip, http.StatusOK},
		{http.MethodPost, "/v1/jobs", `{"type":"montecarlo","montecarlo":{"node":"NODE","samples":10}}`, http.StatusAccepted},
		{http.MethodPost, "/v1/jobs", `{"type":"sweep","sweep":{"node":"NODE","level":3,"points":2}}`, http.StatusAccepted},
		{http.MethodPost, "/v1/jobs", `{"type":"chipcheck","chipcheck":` + chip + `}`, http.StatusAccepted},
	} {
		for _, node := range []string{"0.5", "250", "0.1"} {
			resp, body := doRequest(t, rt.method, ts.URL+strings.ReplaceAll(rt.path, "NODE", node), strings.ReplaceAll(rt.body, "NODE", node))
			if node == "0.5" {
				if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "invalid_request" {
					t.Errorf("%s %s node %q: %d %s, want 400 invalid_request", rt.method, rt.path, node, resp.StatusCode, body)
				}
			} else if resp.StatusCode != rt.ok {
				t.Errorf("%s %s node %q: %d %s, want %d", rt.method, rt.path, node, resp.StatusCode, body, rt.ok)
			}
		}
	}
	if status, body := postJSON(t, ts.URL+"/v1/netcheck", `{"segments":[`+seg+`]}`); status != http.StatusOK {
		t.Errorf("netcheck without a node: %d %s, want 200", status, body)
	}
}
