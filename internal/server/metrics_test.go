package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dsmtherm/internal/core"
)

// TestObserveSolveClassifiesErrors pins the /metrics attribution: only
// core.ErrNoSolution outcomes count as noSolution (thermal runaway);
// other solver errors land in the invalid bucket.
func TestObserveSolveClassifiesErrors(t *testing.T) {
	s := New(Config{})
	m := s.metrics
	m.ObserveSolve(time.Millisecond, nil)
	m.ObserveSolve(time.Millisecond, fmt.Errorf("solve: %w", core.ErrNoSolution))
	m.ObserveSolve(time.Millisecond, fmt.Errorf("solve: %w", core.ErrInvalid))
	if got := m.Solves.Load(); got != 3 {
		t.Errorf("solves = %d, want 3", got)
	}
	if got := m.NoSolution.Load(); got != 1 {
		t.Errorf("noSolution = %d, want 1", got)
	}
	if got := m.SolveInvalid.Load(); got != 1 {
		t.Errorf("invalid = %d, want 1", got)
	}
	snap := s.snapshot()
	if snap.Solver.NoSolution != 1 || snap.Solver.Invalid != 1 {
		t.Errorf("snapshot misreports: %+v", snap.Solver)
	}
}

// TestInstrumentAccountsOnPanic pins that a panicking handler still
// releases the in-flight gauge and counts the request (net/http recovers
// handler panics per connection; the gauge must not leak).
func TestInstrumentAccountsOnPanic(t *testing.T) {
	m := NewMetrics()
	h := m.instrument("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler blew up")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through instrument")
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()
	if got := m.inFlight.Load(); got != 0 {
		t.Errorf("in-flight gauge leaked: %d, want 0", got)
	}
	if got := m.Endpoint("/boom").Requests.Load(); got != 1 {
		t.Errorf("panicking request not counted: %d, want 1", got)
	}
}
