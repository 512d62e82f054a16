package server

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync/atomic"
)

// Panic isolation: a long-running signoff daemon must convert a panic —
// a solver bug tripped by one degenerate net, a bad table lookup, an
// injected fault — into a structured error for the one request that hit
// it, without taking down the process, leaking a pool slot or admission
// ticket, or wedging the coalescer's waiters.
//
// The recovery boundaries, innermost first:
//
//  1. flightGroup.Do wraps the leader's compute (recoverTo), so a
//     panicking solve settles its flight with a *panicError instead of
//     leaving waiters blocked on a flight that will never close;
//  2. Pool.ForEach wraps every task, on whichever worker runs it (the
//     caller's goroutine included), so a panic anywhere in pool-run
//     work (netcheck segments, sweep points) becomes the ForEach error
//     instead of crashing the process — the task's slot is still
//     released;
//  3. the route middleware is the backstop for panics in handler code
//     outside the pool (decode, response marshaling): it writes a
//     best-effort structured 500 and keeps the connection's worker
//     alive.
//
// Each boundary increments the shared panics counter at conversion
// time; because conversion happens exactly once (the innermost boundary
// that sees the panic), the counter never double-counts.

// ErrPanic marks errors produced by recovering a panic. classify maps
// it to HTTP 500 with code "internal"; the quarantine treats it as a
// poison-key failure (panics are never cached, so only the quarantine
// remembers them).
var ErrPanic = errors.New("server: internal panic")

// panicError carries the recovered panic value and the boundary (site)
// that caught it into the structured error response.
type panicError struct {
	site  string
	value any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("%v at %s: %v", ErrPanic, e.site, e.value)
}

func (e *panicError) Unwrap() error { return ErrPanic }

// panicSite extracts the recovery site from an error chain, "" when the
// chain holds no recovered panic. It feeds the "site" field of the
// structured 500 body.
func panicSite(err error) string {
	var pe *panicError
	if errors.As(err, &pe) {
		return pe.site
	}
	return ""
}

// recoverTo is the shared recovery boundary: deferred directly, it
// converts an in-flight panic into a *panicError stored in *errp,
// increments counter (when non-nil) and logs the stack — the only
// trace a recovered panic leaves. A nil recover is a no-op, so the
// helper is safe on every return path.
func recoverTo(errp *error, site string, counter *atomic.Uint64) {
	r := recover()
	if r == nil {
		return
	}
	if counter != nil {
		counter.Add(1)
	}
	log.Printf("server: recovered panic at %s: %v\n%s", site, r, debug.Stack())
	*errp = &panicError{site: site, value: r}
}
