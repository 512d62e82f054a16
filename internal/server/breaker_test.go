package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/core"
	"dsmtherm/internal/em"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/powergrid"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/thermal"
)

// TestFailureClassTaxonomy pins which errors the resilience layer
// counts and which outcomes the result cache keeps, one row per case of
// classify. Getting this wrong in either direction is dangerous:
// counting deterministic answers (no-solution verdicts, validation
// errors) trips the breaker on ordinary traffic; missing panics lets a
// crashing solver serve 500s forever without containment; caching a
// transient failure serves it as truth.
func TestFailureClassTaxonomy(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("x: %w", err) }
	cases := []struct {
		err       error
		code      string
		class     string
		cacheable bool
	}{
		{badRequestf("nope"), "invalid_request", "", true},
		{wrap(core.ErrInvalid), "invalid_request", "", true},
		{wrap(rules.ErrInvalid), "invalid_request", "", true},
		{wrap(netcheck.ErrInvalid), "invalid_request", "", true},
		{wrap(thermal.ErrInvalid), "invalid_request", "", true},
		{wrap(chipcheck.ErrInvalid), "invalid_request", "", true},
		{wrap(powergrid.ErrInvalid), "invalid_request", "", true},
		{wrap(em.ErrInvalid), "invalid_request", "", true},
		{wrap(lifetime.ErrInvalid), "invalid_request", "", true},
		{wrap(fdm.ErrInvalid), "invalid_request", "", true},
		{wrap(jobs.ErrInvalid), "invalid_request", "", true},
		{wrap(jobs.ErrUnknownType), "invalid_request", "", true},
		{ErrJobsDisabled, "jobs_disabled", "", false},
		{wrap(jobs.ErrNotFound), "not_found", "", false},
		{wrap(jobs.ErrNotDone), "not_done", "", false},
		{wrap(jobs.ErrTerminal), "terminal", "", false},
		{wrap(jobs.ErrFailed), "job_failed", "", false},
		{wrap(jobs.ErrQueueFull), "queue_full", "", false},
		{wrap(jobs.ErrStopped), "draining", "", false},
		{wrap(core.ErrNoSolution), "no_solution", "", true},
		{wrap(mathx.ErrNumeric), "numeric_failure", failureClassInternal, false},
		{ErrQuarantined, "quarantined", "", false},
		{ErrQueueFull, "queue_full", "", false},
		{ErrQueueWait, "overloaded", "", false},
		{ErrBreakerOpen, "breaker_open", "", false},
		{ErrDraining, "draining", "", false},
		{wrap(context.DeadlineExceeded), "timeout", "", false},
		{context.Canceled, "canceled", "", false},
		{&panicError{site: "pool.task", value: "boom"}, "internal", failureClassPanic, false},
		{errors.New("disk on fire"), "internal", failureClassInternal, false},
	}
	for _, tc := range cases {
		if _, code := classify(tc.err); code != tc.code {
			t.Errorf("classify(%v) = %q, want %q", tc.err, code, tc.code)
		}
		if got := failureClass(tc.err); got != tc.class {
			t.Errorf("failureClass(%v) = %q, want %q", tc.err, got, tc.class)
		}
		if got := cacheableOutcome(tc.err); got != tc.cacheable {
			t.Errorf("cacheableOutcome(%v) = %v, want %v", tc.err, got, tc.cacheable)
		}
	}
	if failureClass(nil) != "" || !cacheableOutcome(nil) {
		t.Error("a success must count as no failure and be cacheable")
	}
}

func TestBreakerTripShortCircuitAndReclose(t *testing.T) {
	b := NewBreaker(3, time.Minute, 30*time.Millisecond)

	// Below threshold: closed, everything admitted.
	for i := 0; i < 2; i++ {
		b.RecordFailure(failureClassInternal, false)
		if _, _, ok := b.Allow(); !ok {
			t.Fatalf("breaker rejected below threshold (failure %d)", i+1)
		}
	}

	// Threshold failure trips the class open.
	b.RecordFailure(failureClassInternal, false)
	if !b.Degraded() {
		t.Fatal("breaker not degraded after threshold failures")
	}
	if b.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", b.Trips())
	}
	probe, retry, ok := b.Allow()
	if ok || probe {
		t.Fatal("open breaker admitted a miss")
	}
	if retry <= 0 || retry > 30*time.Millisecond {
		t.Errorf("retryAfter = %v, want in (0, cooldown]", retry)
	}
	if b.ShortCircuits() == 0 {
		t.Error("ShortCircuits did not advance")
	}

	// Cooldown elapses: half-open, exactly one probe.
	time.Sleep(40 * time.Millisecond)
	probe, _, ok = b.Allow()
	if !ok || !probe {
		t.Fatalf("half-open breaker did not grant the probe: probe=%v ok=%v", probe, ok)
	}
	if p2, _, ok2 := b.Allow(); ok2 || p2 {
		t.Fatal("second concurrent probe granted")
	}

	// Probe success recloses everything.
	b.RecordSuccess(true)
	if b.Degraded() {
		t.Fatal("breaker still degraded after probe success")
	}
	if b.Reclosed() != 1 {
		t.Errorf("Reclosed = %d, want 1", b.Reclosed())
	}
	if _, _, ok := b.Allow(); !ok {
		t.Fatal("reclosed breaker rejected")
	}
	if st := b.States(); st[failureClassInternal] != "closed" {
		t.Errorf("state = %q, want closed", st[failureClassInternal])
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(1, time.Minute, 20*time.Millisecond)
	b.RecordFailure(failureClassPanic, false)
	time.Sleep(30 * time.Millisecond)
	probe, _, ok := b.Allow()
	if !ok || !probe {
		t.Fatal("probe not granted after cooldown")
	}
	b.RecordFailure(failureClassPanic, true)
	if !b.Degraded() {
		t.Fatal("probe failure did not keep the breaker open")
	}
	if b.Trips() != 2 {
		t.Errorf("Trips = %d, want 2 (trip + probe re-open)", b.Trips())
	}
	// Fresh cooldown: immediately rejected again.
	if _, _, ok := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted before its fresh cooldown")
	}
	// And a fresh probe after the fresh cooldown.
	time.Sleep(30 * time.Millisecond)
	if probe, _, ok := b.Allow(); !ok || !probe {
		t.Fatal("no probe after the re-open cooldown")
	}
	b.RecordSuccess(true)
	if b.Degraded() {
		t.Fatal("second probe success did not reclose")
	}
}

// TestBreakerProbeLifecycleRelease pins the probe-token plumbing: a
// probe whose request dies for lifecycle reasons must release the token
// (ProbeDone) or half-open would deadlock with no probe ever reporting.
func TestBreakerProbeLifecycleRelease(t *testing.T) {
	b := NewBreaker(1, time.Minute, 10*time.Millisecond)
	b.RecordFailure(failureClassInternal, false)
	time.Sleep(20 * time.Millisecond)
	probe, _, ok := b.Allow()
	if !ok || !probe {
		t.Fatal("probe not granted")
	}
	b.ProbeDone(true) // inconclusive: client walked away mid-probe
	if probe, _, ok := b.Allow(); !ok || !probe {
		t.Fatal("released probe token not re-granted")
	}
}

// TestBreakerClassesIndependent verifies one class tripping does not
// count failures for another, but DOES degrade the whole solver path
// (misses short-circuit regardless of which class tripped).
func TestBreakerClassesIndependent(t *testing.T) {
	b := NewBreaker(2, time.Minute, time.Minute)
	b.RecordFailure(failureClassPanic, false)
	b.RecordFailure(failureClassInternal, false)
	if b.Degraded() {
		t.Fatal("one failure each should not trip either class")
	}
	b.RecordFailure(failureClassPanic, false)
	if !b.Degraded() {
		t.Fatal("panic class did not trip at its own threshold")
	}
	st := b.States()
	if st[failureClassPanic] != "open" || st[failureClassInternal] != "closed" {
		t.Errorf("states = %v, want panic open / internal closed", st)
	}
	if _, _, ok := b.Allow(); ok {
		t.Error("degraded breaker admitted a miss")
	}
}

func TestBreakerDisabled(t *testing.T) {
	for _, b := range []*Breaker{nil, NewBreaker(-1, time.Minute, time.Minute)} {
		for i := 0; i < 10; i++ {
			b.RecordFailure(failureClassInternal, false)
		}
		if b.Degraded() {
			t.Error("disabled breaker degraded")
		}
		if probe, _, ok := b.Allow(); !ok || probe {
			t.Error("disabled breaker gated a miss")
		}
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b := NewBreaker(2, 30*time.Millisecond, time.Minute)
	b.RecordFailure(failureClassInternal, false)
	time.Sleep(40 * time.Millisecond)
	b.RecordFailure(failureClassInternal, false)
	if b.Degraded() {
		t.Fatal("failures across a stale window tripped the breaker")
	}
}
