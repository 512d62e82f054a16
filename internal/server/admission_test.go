package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
)

// TestAdmissionFastPath verifies uncontended acquires never queue.
func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(2, 4, time.Second)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InUse(); got != 2 {
		t.Errorf("InUse = %d, want 2", got)
	}
	r1()
	r2()
	if got := a.InUse(); got != 0 {
		t.Errorf("InUse after release = %d, want 0", got)
	}
}

// TestAdmissionQueueFull verifies that once the wait-queue is at depth,
// further requests are rejected immediately with ErrQueueFull — they do
// not wait out maxWait first.
func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(1, 2, 10*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Fill the queue with two blocked waiters.
	var wg sync.WaitGroup
	waiterCtx, cancelWaiters := context.WithCancel(context.Background())
	defer cancelWaiters()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := a.Acquire(waiterCtx); err == nil {
				r()
			}
		}()
	}
	// Wait until both are registered in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for a.Waiting() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never queued: Waiting = %d", a.Waiting())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = a.Acquire(context.Background())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("queue-full rejection took %v, want immediate", d)
	}
	cancelWaiters()
	wg.Wait()
}

// TestAdmissionQueueWait verifies a queued request is rejected with
// ErrQueueWait once maxWait elapses without a slot.
func TestAdmissionQueueWait(t *testing.T) {
	a := NewAdmission(1, 4, 30*time.Millisecond)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	_, err = a.Acquire(context.Background())
	if !errors.Is(err, ErrQueueWait) {
		t.Fatalf("want ErrQueueWait, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("rejected after %v, before maxWait elapsed", d)
	}
	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after rejection = %d, want 0", got)
	}
}

// TestAdmissionCtxCancel verifies a queued request honours its own
// context and leaves the queue clean.
func TestAdmissionCtxCancel(t *testing.T) {
	a := NewAdmission(1, 4, 10*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = a.Acquire(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after cancel = %d, want 0", got)
	}
}

// TestAdmissionQueuedAcquireGetsSlot verifies a queued request is
// admitted when a slot frees up within maxWait.
func TestAdmissionQueuedAcquireGetsSlot(t *testing.T) {
	a := NewAdmission(1, 4, 5*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		release()
	}()
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	r2()
	if got := a.InUse(); got != 0 {
		t.Errorf("InUse = %d, want 0", got)
	}
}

// TestAdmissionReleaseIdempotent verifies double-release does not free
// two slots (the release func is exactly-once).
func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(2, 0, time.Second)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r1()
	r1() // double release must be a no-op
	if got := a.InUse(); got != 1 {
		t.Fatalf("InUse after double release = %d, want 1", got)
	}
	r2()
	if got := a.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestAdmissionZeroQueueDepth verifies maxQueue=0 means saturation
// rejects immediately with no waiting.
func TestAdmissionZeroQueueDepth(t *testing.T) {
	a := NewAdmission(1, 0, 10*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = a.Acquire(context.Background())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v, want immediate", d)
	}
}

// TestAdmissionWaitClampedToDeadline pins the queue-wait clamp: a
// caller whose context deadline is far shorter than the configured
// maxWait must be bounced when ITS budget runs out — and as the honest
// backpressure signal (ErrQueueWait → 503 + Retry-After), not as a
// deadline burn (ErrDeadlineExceeded → 504).
func TestAdmissionWaitClampedToDeadline(t *testing.T) {
	a := NewAdmission(1, 4, 10*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = a.Acquire(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrQueueWait) {
		t.Fatalf("clamped wait returned %v, want ErrQueueWait", err)
	}
	if elapsed >= 10*time.Second || elapsed > 2*time.Second {
		t.Fatalf("clamped wait took %v — the clamp did not bind", elapsed)
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("rejected after %v, before the caller's budget elapsed", elapsed)
	}
	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after clamped rejection = %d, want 0", got)
	}

	// Explicit cancellation (the client walking away) is NOT normalized:
	// that's a lifecycle end, not backpressure.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel2() }()
	if _, err := a.Acquire(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
}

// TestQueueWaitClampOverHTTP is the end-to-end regression for the same
// clamp: a route with a tight per-endpoint deadline, queued behind a
// stalled solve, must come back as a fast 503 "overloaded" with
// Retry-After — previously it burned its whole deadline in the queue
// and surfaced as a 504.
func TestQueueWaitClampOverHTTP(t *testing.T) {
	s := New(Config{
		Workers:          2,
		CacheEntries:     64,
		AdmitConcurrent:  1,
		QueueDepth:       4,
		QueueWait:        10 * time.Second,
		RequestTimeout:   10 * time.Second,
		EndpointTimeouts: map[string]time.Duration{"/v1/rules": 150 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the one admission slot with a stalled sweep running under the
	// generous 10s default deadline; only /v1/rules has the tight
	// 150ms budget, so the occupant cannot free the slot early and turn
	// the queued request's rejection into an admit-then-timeout race.
	release := make(chan struct{})
	defer close(release)
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolve, faultinject.Stall(release)))

	stalled := make(chan struct{})
	var once sync.Once
	s.testHookStarted = func(route string) {
		if route == "/v1/sweep" {
			once.Do(func() { close(stalled) })
		}
	}
	go func() {
		http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"node":"0.25","level":5,"dutyCycles":[0.9]}`))
	}()
	<-stalled
	// Make sure the occupant actually holds the admission slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.admission.InUse() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("occupant never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/rules", "application/json",
		strings.NewReader(`{"node":"0.25","level":3,"dutyCycle":0.3,"j0MA":1.8}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request got %d after %v, want 503: %s", resp.StatusCode, elapsed, body)
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error.Code != "overloaded" {
		t.Fatalf("want structured 503 overloaded, got: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("clamped 503 missing Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Errorf("rejection took %v — waited past the 150ms endpoint deadline budget", elapsed)
	}
	if got := s.metrics.RejectedQueueWait.Load(); got == 0 {
		t.Error("RejectedQueueWait never advanced")
	}
}
