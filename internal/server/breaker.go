package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Failure classes: the taxonomy the resilience layer (breaker and
// quarantine) counts, read off classify's code. Deterministic outcomes
// — a solution, a no_solution verdict, an invalid_request — are
// answers, not failures; request-lifecycle errors (the client's deadline
// or departure) say nothing about the solver's health. Only the
// remainder — recovered panics, unexpected internal errors and numeric
// failures — indicate the solver path itself is degrading.
const (
	failureClassPanic    = "panic"
	failureClassInternal = "internal"
)

// failureClass maps err to its resilience class, "" when err is not a
// solver-health failure (success, deterministic answer, lifecycle, or
// the resilience layer's own rejections).
func failureClass(err error) string {
	if err == nil {
		return ""
	}
	switch _, code := classify(err); code {
	case "internal":
		if errors.Is(err, ErrPanic) {
			return failureClassPanic
		}
		return failureClassInternal
	case "numeric_failure":
		return failureClassInternal
	}
	return ""
}

// cacheableOutcome reports whether a compute outcome may be remembered
// in the result cache: a success, or a deterministic answer of the
// problem itself (classify's invalid_request and no_solution). Anything
// else — panics, injected faults, numeric and unclassified internal
// failures — is not provably a property of the inputs, so remembering
// it would poison the key forever. The quarantine is the right memory
// for those: bounded, windowed, and TTL-released.
func cacheableOutcome(err error) bool {
	if err == nil {
		return true
	}
	_, code := classify(err)
	return code == "invalid_request" || code == "no_solution"
}

// isLifecycleErr reports whether err describes the request's lifecycle
// (cancellation, deadline) rather than an outcome of the problem.
func isLifecycleErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Breaker state per failure class.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is the per-failure-class circuit breaker over the solver
// path. Each class trips independently: threshold failures of a class
// within window open that class's circuit for cooldown. While any
// class is open the solver path is degraded — cache hits keep serving
// (marked stale once past the freshness horizon; that policy lives in
// the Server), and cache misses are short-circuited with a fast
// structured 503 instead of queueing behind a solver that keeps
// failing. Once the cooldown elapses the class turns half-open and
// Allow grants exactly one probe; the probe rides the ordinary
// singleflight path, so recovery costs one solve. A probe success
// recloses every degraded class; a probe failure re-opens its class
// with a fresh cooldown.
//
// Allow's fast path is one atomic load: a healthy breaker adds nothing
// but that to the serving path.
type Breaker struct {
	threshold int           // failures within window to trip; <= 0 disables
	window    time.Duration // failure-counting window
	cooldown  time.Duration // open duration before half-open

	degraded atomic.Int32 // classes not closed (fast-path gate + gauge)

	mu      sync.Mutex
	classes map[string]*breakerClass
	probing bool // a half-open probe is in flight (one across all classes)

	trips         atomic.Uint64 // class transitions to open (incl. re-opens)
	shortCircuits atomic.Uint64 // misses rejected while open/probing
	probes        atomic.Uint64 // half-open probes granted
	reclosed      atomic.Uint64 // classes closed by a probe success
}

type breakerClass struct {
	state       int
	failures    int
	windowStart time.Time
	openedAt    time.Time
}

// NewBreaker builds a breaker. threshold <= 0 disables it (Allow always
// admits, Record is a no-op).
func NewBreaker(threshold int, window, cooldown time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		window:    window,
		cooldown:  cooldown,
		classes:   make(map[string]*breakerClass),
	}
}

func (b *Breaker) disabled() bool { return b == nil || b.threshold <= 0 }

// Allow gates one solver-path cache miss. ok=false short-circuits the
// miss (serve a structured 503 with the retryAfter hint). probe=true
// marks the caller as the half-open probe: it must report its outcome
// through Record (or ProbeDone for an inconclusive lifecycle end) so
// the probe slot is released.
func (b *Breaker) Allow() (probe bool, retryAfter time.Duration, ok bool) {
	if b.disabled() || b.degraded.Load() == 0 {
		return false, 0, true
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	var worst time.Duration
	halfOpen := false
	for _, c := range b.classes {
		switch c.state {
		case breakerOpen:
			if rem := c.openedAt.Add(b.cooldown).Sub(now); rem > 0 {
				if rem > worst {
					worst = rem
				}
			} else {
				c.state = breakerHalfOpen
				halfOpen = true
			}
		case breakerHalfOpen:
			halfOpen = true
		}
	}
	if worst > 0 {
		b.shortCircuits.Add(1)
		return false, worst, false
	}
	if halfOpen {
		if b.probing {
			b.shortCircuits.Add(1)
			return false, time.Second, false
		}
		b.probing = true
		b.probes.Add(1)
		return true, 0, true
	}
	return false, 0, true
}

// RecordSuccess reports a successful (or deterministically-answered)
// compute. A probe success recloses every degraded class.
func (b *Breaker) RecordSuccess(probe bool) {
	if b.disabled() || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	for _, c := range b.classes {
		if c.state != breakerClosed {
			c.state = breakerClosed
			c.failures = 0
			b.degraded.Add(-1)
			b.reclosed.Add(1)
		}
	}
}

// RecordFailure reports one failure of class. In the closed state it
// counts toward the windowed trip threshold; in half-open (the probe,
// or a straggler that passed Allow before the trip) it re-opens the
// class with a fresh cooldown.
func (b *Breaker) RecordFailure(class string, probe bool) {
	if b.disabled() {
		return
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	c := b.classes[class]
	if c == nil {
		c = &breakerClass{windowStart: now}
		b.classes[class] = c
	}
	switch c.state {
	case breakerHalfOpen:
		c.state = breakerOpen
		c.openedAt = now
		c.failures = 0
		b.trips.Add(1)
	case breakerOpen:
		// Straggler failure while already open: the cooldown clock is
		// left alone so the circuit cannot be held open forever by
		// solves that started before the trip.
	default: // closed
		if now.Sub(c.windowStart) > b.window {
			c.failures, c.windowStart = 0, now
		}
		c.failures++
		if c.failures >= b.threshold {
			c.state = breakerOpen
			c.openedAt = now
			b.degraded.Add(1)
			b.trips.Add(1)
		}
	}
}

// ProbeDone releases the probe slot after an inconclusive outcome (the
// probe's request ended for lifecycle reasons before the solve could
// prove anything); the class stays half-open and the next Allow grants
// a fresh probe.
func (b *Breaker) ProbeDone(probe bool) {
	if b.disabled() || !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Degraded reports whether any failure class is not closed. The
// Server's stale-marking policy keys off this.
func (b *Breaker) Degraded() bool {
	return !b.disabled() && b.degraded.Load() > 0
}

// States snapshots the per-class states for /metrics.
func (b *Breaker) States() map[string]string {
	if b.disabled() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.classes) == 0 {
		return nil
	}
	out := make(map[string]string, len(b.classes))
	for class, c := range b.classes {
		switch c.state {
		case breakerOpen:
			out[class] = "open"
		case breakerHalfOpen:
			out[class] = "half-open"
		default:
			out[class] = "closed"
		}
	}
	return out
}

// Trips returns the monotonic count of class transitions to open.
func (b *Breaker) Trips() uint64 {
	if b == nil {
		return 0
	}
	return b.trips.Load()
}

// ShortCircuits returns the monotonic count of misses rejected while
// the breaker was open or probing.
func (b *Breaker) ShortCircuits() uint64 {
	if b == nil {
		return 0
	}
	return b.shortCircuits.Load()
}

// Probes returns the monotonic count of half-open probes granted.
func (b *Breaker) Probes() uint64 {
	if b == nil {
		return 0
	}
	return b.probes.Load()
}

// Reclosed returns the monotonic count of classes closed by probes.
func (b *Breaker) Reclosed() uint64 {
	if b == nil {
		return 0
	}
	return b.reclosed.Load()
}
