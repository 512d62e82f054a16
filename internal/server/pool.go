package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a counting-semaphore worker pool shared by all requests: it
// bounds the total solver concurrency of the daemon regardless of how
// many requests are in flight, so a burst of wide sweeps cannot fork an
// unbounded number of goroutines.
type Pool struct {
	sem chan struct{}
	// panics, when set (the Server wires it to its metrics), counts
	// panics recovered at the task boundary.
	panics *atomic.Uint64
}

// NewPool builds a pool admitting n concurrent tasks (n >= 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size returns the concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns the number of pool slots currently held. It is a
// point-in-time gauge for /metrics and tests.
func (p *Pool) InUse() int { return len(p.sem) }

// ForEach runs fn(0..n-1) across the pool, blocking until every started
// task finishes. The first task error cancels the derived context,
// stops new tasks from being scheduled, and is returned; if the caller's
// ctx is cancelled first, unscheduled indices are abandoned and the
// cancellation error is returned. Tasks observe cancellation through the
// ctx they receive.
//
// Workers pull indices from a shared counter and take a pool slot per
// task, releasing it before the next, so a long request shares the pool
// task by task with every other one. The calling goroutine is the first
// worker and at most min(n, Size())-1 more are started: a one-task
// request starts no goroutine, and a wide one no more than the pool can
// run at once.
//
// The returned error is normalized so callers can classify it with
// errors.Is alone: when the caller's ctx ended, the result always
// matches ctx.Err() (context.DeadlineExceeded or context.Canceled) even
// if a sibling task's error won the race to set the cancellation cause —
// and the cause, task sentinels included, stays matchable through the
// same error.
func (p *Pool) ForEach(parent context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)

	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			select {
			case p.sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			if ctx.Err() != nil {
				<-p.sem
				return
			}
			// Recovery boundary: a panicking task becomes this ForEach's
			// error instead of crashing the process, and its slot is
			// released like any other task's.
			err := func() (err error) {
				defer recoverTo(&err, "pool.task", p.panics)
				return fn(ctx, i)
			}()
			<-p.sem
			if err != nil {
				cancel(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(n, p.Size()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if ctx.Err() == nil {
		return nil
	}
	cause := context.Cause(ctx)
	if perr := parent.Err(); perr != nil && !errors.Is(cause, perr) {
		// The parent context ended while a task error (or a custom
		// cancellation cause) held the cause slot. Surface both: the
		// wrapped pair satisfies errors.Is for the context error AND
		// for whatever sentinel the cause wraps.
		return fmt.Errorf("%w: %w", perr, cause)
	}
	return cause
}
