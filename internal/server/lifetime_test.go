package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsmtherm/internal/lifetime"
)

const lifetimeBody = `{
	"segments": [
		{"count": 500000, "tempC": 105, "jMA": 0.4},
		{"count": 20000, "tempC": 135, "jMA": 1.1}
	],
	"samples": 5000,
	"seed": 3,
	"rho": 0.2
}`

func TestLifetimeEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/lifetime", lifetimeBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep lifetime.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Samples != 5000 || rep.Classes != 2 || rep.Segments != 520000 {
		t.Fatalf("census echo wrong: %+v", rep)
	}
	if len(rep.Quantiles) != 3 || !(rep.MinYears < rep.MedianYears && rep.MedianYears < rep.MaxYears) {
		t.Fatalf("summary wrong: %+v", rep)
	}
	if s.metrics.Lifetimes.Load() != 1 || s.metrics.LifetimeSamples.Load() != 5000 {
		t.Fatalf("metrics not bumped: requests=%d samples=%d",
			s.metrics.Lifetimes.Load(), s.metrics.LifetimeSamples.Load())
	}

	// Same body, same bytes: the sampling path is deterministic.
	_, body2 := postJSON(t, ts.URL+"/v1/lifetime", lifetimeBody)
	if string(body) != string(body2) {
		t.Fatal("repeat request must return identical bytes")
	}
}

func TestLifetimeEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed json", `{"segments":[`},
		{"unknown field", `{"segments":[{"count":1,"tempC":100,"jMA":1}],"bogus":1}`},
		{"empty census", `{"segments":[]}`},
		{"bad metal", `{"metal":"unobtainium","segments":[{"count":1,"tempC":100,"jMA":1}]}`},
		{"bad rho", `{"rho":1.5,"segments":[{"count":1,"tempC":100,"jMA":1}]}`},
		{"bad quantile", `{"quantiles":[2],"segments":[{"count":1,"tempC":100,"jMA":1}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/lifetime", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			if code := errorCode(t, body); code != "invalid_request" {
				t.Fatalf("code %q, want invalid_request", code)
			}
		})
	}
}

// TestLifetimeCapRedirectsToJobs: sample counts above
// MaxLifetimeSamples are rejected before any sampling, with a hint
// naming the bulk-lane job type.
func TestLifetimeCapRedirectsToJobs(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 16, MaxLifetimeSamples: 1000})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := `{"samples": 2000, "segments": [{"count": 10, "tempC": 110, "jMA": 0.5}]}`
	status, resp := postJSON(t, ts.URL+"/v1/lifetime", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, resp)
	}
	if !strings.Contains(string(resp), "lifetime") || !strings.Contains(string(resp), "job") {
		t.Fatalf("cap error must point at the job lane: %s", resp)
	}
}

// TestLifetimeCancelStopsSampling: a request cancelled mid-sampling must
// stop within one ChunkSamples slice instead of drawing its whole count.
// Uncancelled, these 1<<24 samples of a 3-class census take ~10 s.
func TestLifetimeCancelStopsSampling(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 16, MaxLifetimeSamples: 1 << 24})
	body := fmt.Sprintf(`{"samples": %d, "seed": 5, "rho": 0.3, "segments": [
		{"count": 200000, "tempC": 100, "jMA": 0.45},
		{"count": 5000, "tempC": 130, "jMA": 1.1},
		{"count": 300, "tempC": 155, "jMA": 1.6}]}`, 1<<24)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/lifetime", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still sampling 2 s after its request was cancelled")
	}
	if rec.Code == http.StatusOK {
		t.Fatalf("cancelled request answered 200: %s", rec.Body.String())
	}
	if n := s.metrics.Lifetimes.Load(); n != 0 {
		t.Fatalf("cancelled request counted as %d completed lifetimes", n)
	}
}
