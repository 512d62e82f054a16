package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/faultinject"
)

func TestPoolForEachRunsAll(t *testing.T) {
	p := NewPool(4)
	var ran [100]atomic.Bool
	err := p.ForEach(context.Background(), len(ran), func(ctx context.Context, i int) error {
		ran[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const n = 3
	p := NewPool(n)
	var cur, peak atomic.Int64
	err := p.ForEach(context.Background(), 50, func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := peak.Load(); pk > n {
		t.Errorf("observed %d concurrent tasks, pool bound %d", pk, n)
	}
}

func TestPoolForEachError(t *testing.T) {
	p := NewPool(2)
	boom := errors.New("boom")
	var after atomic.Int64
	err := p.ForEach(context.Background(), 1000, func(ctx context.Context, i int) error {
		if i == 3 {
			return boom
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := after.Load(); n > 900 {
		t.Errorf("error did not stop scheduling: %d tasks ran", n)
	}
}

func TestPoolForEachCancel(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.ForEach(ctx, 10, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// waitStarted lets the erroring task of a race case return only after
// its siblings have started: a pool starts no task once an error has
// cancelled its context, so without it the siblings that are to outlive
// the parent's deadline might never run. It also returns when the
// parent ends, so a pool that never starts them fails the assertions
// instead of hanging.
func waitStarted(parent context.Context, started *sync.WaitGroup) {
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	select {
	case <-all:
	case <-parent.Done():
	}
}

// TestPoolForEachErrorNormalization pins ForEach's contract that callers
// can classify the result with errors.Is alone: when the caller's
// context ends, the returned error matches ctx.Err() even if a task
// error won the race to set the cancellation cause — and the task's
// sentinel stays matchable through the same error.
func TestPoolForEachErrorNormalization(t *testing.T) {
	sentinel := errors.New("task sentinel")
	wrapped := func() error { return errors.Join(core.ErrNoSolution, sentinel) }

	cases := []struct {
		name string
		ctx  func(t *testing.T) context.Context
		fn   func(parent context.Context) func(ctx context.Context, i int) error
		want []error // every listed error must satisfy errors.Is
		not  []error // and none of these
	}{
		{
			name: "task error only",
			ctx:  func(t *testing.T) context.Context { return context.Background() },
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				return func(ctx context.Context, i int) error { return sentinel }
			},
			want: []error{sentinel},
			not:  []error{context.Canceled, context.DeadlineExceeded},
		},
		{
			name: "deadline only",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				return func(ctx context.Context, i int) error {
					<-ctx.Done()
					return nil
				}
			},
			want: []error{context.DeadlineExceeded},
			not:  []error{sentinel},
		},
		{
			name: "task error races a deadline",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				var started sync.WaitGroup
				started.Add(3)
				return func(ctx context.Context, i int) error {
					if i == 0 {
						// Error first, so it holds the cancellation cause…
						waitStarted(parent, &started)
						return sentinel
					}
					// …while a sibling outlives the parent's deadline, so
					// ForEach returns only after the parent ctx has ended.
					started.Done()
					<-parent.Done()
					return nil
				}
			},
			want: []error{context.DeadlineExceeded, sentinel},
		},
		{
			name: "wrapped package sentinel races cancellation",
			ctx: func(t *testing.T) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(20 * time.Millisecond)
					cancel()
				}()
				t.Cleanup(cancel)
				return ctx
			},
			fn: func(parent context.Context) func(ctx context.Context, i int) error {
				var started sync.WaitGroup
				started.Add(3)
				return func(ctx context.Context, i int) error {
					if i == 0 {
						waitStarted(parent, &started)
						return wrapped()
					}
					started.Done()
					<-parent.Done()
					return nil
				}
			},
			want: []error{context.Canceled, core.ErrNoSolution, sentinel},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(4)
			parent := tc.ctx(t)
			err := p.ForEach(parent, 4, tc.fn(parent))
			if err == nil {
				t.Fatal("ForEach returned nil, want an error")
			}
			for _, w := range tc.want {
				if !errors.Is(err, w) {
					t.Errorf("errors.Is(err, %v) = false; err = %v", w, err)
				}
			}
			for _, n := range tc.not {
				if errors.Is(err, n) {
					t.Errorf("errors.Is(err, %v) = true, want false; err = %v", n, err)
				}
			}
		})
	}
}

// goid returns the calling goroutine's id from the "goroutine N [...]"
// header runtime.Stack writes.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestPoolForEachWorkerGoroutines: 200 tasks on a 2-slot pool run on at
// most two goroutines, one of them the caller's, rather than on a
// goroutine per task.
func TestPoolForEachWorkerGoroutines(t *testing.T) {
	p := NewPool(2)
	caller := goid()
	var mu sync.Mutex
	ran := map[string]int{}
	err := p.ForEach(context.Background(), 200, func(ctx context.Context, i int) error {
		id := goid()
		mu.Lock()
		defer mu.Unlock()
		ran[id]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) > 2 {
		t.Errorf("200 tasks ran on %d goroutines, want at most 2", len(ran))
	}
	if ran[caller] == 0 {
		t.Errorf("the calling goroutine ran none of the tasks")
	}
}

// TestPoolForEachOneTaskOnCaller: a one-task ForEach (rules, chipcheck,
// lifetime) runs its task on the calling goroutine and starts none.
func TestPoolForEachOneTaskOnCaller(t *testing.T) {
	p := NewPool(4)
	caller := goid()
	var ranOn string
	if err := p.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
		ranOn = goid()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ranOn != caller {
		t.Errorf("task ran on goroutine %s, want the caller's %s", ranOn, caller)
	}
}

// TestPoolCallerTaskPanic: a task that panics on the calling goroutine
// is recovered at the same boundary as any other task: the panic is the
// ForEach error, it is counted once, and its slot comes back.
func TestPoolCallerTaskPanic(t *testing.T) {
	p := NewPool(1)
	var panics atomic.Uint64
	p.panics = &panics
	caller := goid()
	var ranOn string
	err := p.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
		ranOn = goid()
		panic("caller task blew up")
	})
	if ranOn != caller {
		t.Errorf("task ran on goroutine %s, want the caller's %s", ranOn, caller)
	}
	if !errors.Is(err, ErrPanic) || panicSite(err) != "pool.task" {
		t.Fatalf("ForEach error = %v, want ErrPanic at pool.task", err)
	}
	if got := panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := p.InUse(); got != 0 {
		t.Fatalf("pool slots leaked: InUse = %d, want 0", got)
	}
}

func TestPoolForEachNoTasks(t *testing.T) {
	p := NewPool(2)
	if err := p.ForEach(context.Background(), 0, func(ctx context.Context, i int) error {
		t.Error("a task ran for n = 0")
		return nil
	}); err != nil {
		t.Fatalf("n = 0: %v", err)
	}
}

// TestPoolBoundsSolvesAcrossRequests: the pool, not the number of
// admitted requests, bounds solver concurrency. On a one-slot pool two
// admitted cold rules queries never solve at once: the second waits for
// the slot while the first is held inside its solve.
func TestPoolBoundsSolvesAcrossRequests(t *testing.T) {
	s := New(Config{Workers: 1, AdmitConcurrent: 4})
	h := s.Handler()
	var started, inSolve, most atomic.Int64
	s.testHookStarted = func(string) { started.Add(1) }
	release := make(chan struct{})
	t.Cleanup(faultinject.Set(faultinject.SiteCoreSolve, func(ctx context.Context) error {
		n := inSolve.Add(1)
		defer inSolve.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	codes := make([]int, 2)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = postRules(h, fmt.Sprintf(`{"node":"0.25","level":%d,"dutyCycle":0.1}`, 4+i))
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() != 2 || inSolve.Load() != 1 {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("never saw both requests started and one solving: %d solving, %d at most", inSolve.Load(), most.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for the second request to reach a solve
	close(release)
	wg.Wait()
	if n := most.Load(); n != 1 {
		t.Errorf("%d solves ran at once on a one-slot pool", n)
	}
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
}
