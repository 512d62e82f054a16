package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
)

// TestPoolTaskPanicContained pins the pool's recovery boundary: a
// panicking task becomes the ForEach error (matchable as ErrPanic, site
// preserved), the pool slot comes back, and the shared panic counter
// advances exactly once.
func TestPoolTaskPanicContained(t *testing.T) {
	p := NewPool(2)
	var panics atomic.Uint64
	p.panics = &panics

	err := p.ForEach(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("task blew up")
		}
		return nil
	})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("ForEach error = %v, want ErrPanic", err)
	}
	if got := panicSite(err); got != "pool.task" {
		t.Errorf("panic site = %q, want pool.task", got)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := p.InUse(); got != 0 {
		t.Fatalf("pool slots leaked: InUse = %d, want 0", got)
	}
	// The pool still works after containing a panic.
	if err := p.ForEach(context.Background(), 2, func(context.Context, int) error { return nil }); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}

	// Through the handler: netcheck segments that panic on a worker the
	// pool started would crash the process without the boundary; with
	// it the design gets a structured 500 from the pool.task site.
	s := New(Config{Workers: 2})
	t.Cleanup(faultinject.Set(faultinject.SiteNetcheckSegment, faultinject.Panic("segment blew up")))
	seg := `{"net":"n","name":"s%d","level":5,"lengthUm":3000,"waveform":{"kind":"bipolar","peakMA":1,"dutyCycle":0.12}}`
	var segs []string
	for i := 0; i < 4; i++ {
		segs = append(segs, fmt.Sprintf(seg, i))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/netcheck",
		strings.NewReader(`{"node":"0.25","segments":[`+strings.Join(segs, ",")+`]}`)))
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != http.StatusInternalServerError ||
		apiErr.Error.Site != "pool.task" {
		t.Fatalf("panicking segments: status %d, body %s, want a 500 from pool.task", rec.Code, rec.Body.Bytes())
	}
	if got := s.pool.InUse(); got != 0 {
		t.Fatalf("pool slots leaked through segment panics: InUse = %d", got)
	}
}

// TestFlightLeaderPanicSettlesWaiters pins the flight boundary: a
// panicking leader settles its flight with a *panicError, so waiters get
// a structured failure instead of blocking forever on a flight that
// will never close.
func TestFlightLeaderPanicSettlesWaiters(t *testing.T) {
	var g flightGroup
	var panics atomic.Uint64
	g.panics = &panics

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (any, error) {
			close(entered)
			<-release
			panic("leader blew up")
		})
		leaderErr <- err
	}()
	<-entered

	// A waiter joins the doomed flight.
	waiterErr := make(chan error, 1)
	go func() {
		_, coalesced, err := g.Do(context.Background(), "k", func() (any, error) {
			t.Error("waiter should not have computed")
			return nil, nil
		})
		if !coalesced {
			t.Error("waiter was not coalesced")
		}
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for _, ch := range []chan error{leaderErr, waiterErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrPanic) {
				t.Errorf("flight error = %v, want ErrPanic", err)
			}
			if got := panicSite(err); got != "server.flight" {
				t.Errorf("panic site = %q, want server.flight", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("flight participant never unblocked — waiters leaked on a panicked flight")
		}
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1 (one panic, one count)", got)
	}
	if g.Active() != 0 || g.Waiting() != 0 {
		t.Errorf("flight gauges leaked: active=%d waiting=%d", g.Active(), g.Waiting())
	}
}

// TestHandlerPanicBackstop pins the route middleware backstop: a panic
// outside the pool/flight boundaries becomes a structured 500 with
// code "internal" and the panic site, the connection survives, and no
// gauge leaks.
func TestHandlerPanicBackstop(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 64})
	s.route("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler blew up")
	}, ungated)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var apiErr apiError
	status := getJSON(t, ts.URL+"/boom", &apiErr)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	if apiErr.Error.Code != "internal" {
		t.Errorf("error code = %q, want internal", apiErr.Error.Code)
	}
	if apiErr.Error.Site != "handler:/boom" {
		t.Errorf("error site = %q, want handler:/boom", apiErr.Error.Site)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}

	// The server keeps serving on the same client/connection pool.
	if status := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("healthz after panic = %d, want 200", status)
	}
	var snap Snapshot
	if status := getJSON(t, ts.URL+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if snap.Resilience.Panics != 1 {
		t.Errorf("metrics panics = %d, want 1", snap.Resilience.Panics)
	}
	if snap.InFlight != 1 { // the scrape itself
		t.Errorf("inFlight leaked through the panic: %d, want 1", snap.InFlight)
	}
}
