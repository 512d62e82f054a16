package netcheck

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dsmtherm/internal/waveform"
)

// mixedDesign builds a design spanning levels, margins and verdicts: some
// passing, some marginal, some failing, some idle — enough structure that
// any ordering or assembly divergence between the serial and concurrent
// paths shows up in the comparison.
func mixedDesign(t testing.TB, n int) (Config, []*Segment) {
	t.Helper()
	deck := testDeck(t)
	var segs []*Segment
	for i := 0; i < n; i++ {
		level := 3 + i%4 // M3..M6
		jPeak := []float64{0.5, 1.0, 8, 25, 60}[i%5]
		s := seg(t, deck, fmt.Sprintf("net%d", i%7), fmt.Sprintf("s%d", i), level, jPeak, 500+float64(i%9)*400)
		if i%11 == 10 {
			s.Current = waveform.DC{Value: 0} // idle
		}
		segs = append(segs, s)
	}
	return Config{Deck: deck}, segs
}

// boundedRunner is a ForEachFunc with its own worker set: up to workers
// goroutines (GOMAXPROCS when workers <= 0) pull indices from a shared
// counter, and the first task error cancels the rest and is returned,
// as a server pool's ForEach does.
func boundedRunner(workers int) ForEachFunc {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return func(parent context.Context, n int, fn func(context.Context, int) error) error {
		ctx, cancel := context.WithCancelCause(parent)
		defer cancel(nil)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, n); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
					if err := fn(ctx, i); err != nil {
						cancel(err)
					}
				}
			}()
		}
		wg.Wait()
		return context.Cause(ctx)
	}
}

func TestCheckConcurrentMatchesSerial(t *testing.T) {
	cfg, segs := mixedDesign(t, 60)
	serial, err := Check(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		conc, err := CheckWith(context.Background(), cfg, segs, boundedRunner(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, conc) {
			t.Errorf("workers=%d: concurrent report differs from serial\nserial:\n%s\nconcurrent:\n%s",
				workers, serial.Format(), conc.Format())
		}
	}
}

func TestCheckConcurrentErrorMatchesSerial(t *testing.T) {
	cfg, segs := mixedDesign(t, 24)
	segs[5].Level = 99  // invalid at check time? no: Layer lookup fails in checkSegment
	segs[17].Level = 98 // a second failure later in the list
	_, serialErr := Check(cfg, segs)
	if serialErr == nil {
		t.Fatal("expected serial error")
	}
	_, concErr := CheckWith(context.Background(), cfg, segs, boundedRunner(4))
	if concErr == nil {
		t.Fatal("expected concurrent error")
	}
	if serialErr.Error() != concErr.Error() {
		t.Errorf("error mismatch:\nserial:     %v\nconcurrent: %v", serialErr, concErr)
	}
}

// TestCheckWithMatchesSerial pins CheckWith's determinism contract for
// caller-supplied schedulers of any shape (a server worker pool, a
// serial loop, goroutine-per-task).
func TestCheckWithMatchesSerial(t *testing.T) {
	cfg, segs := mixedDesign(t, 60)
	serial, err := Check(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	runners := map[string]ForEachFunc{
		"serial": func(ctx context.Context, n int, fn func(context.Context, int) error) error {
			for i := 0; i < n; i++ {
				if err := fn(ctx, i); err != nil {
					return err
				}
			}
			return nil
		},
		"goroutine-per-task": func(ctx context.Context, n int, fn func(context.Context, int) error) error {
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = fn(ctx, i)
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		},
		"bounded3": boundedRunner(3),
	}
	for name, run := range runners {
		rep, err := CheckWith(context.Background(), cfg, segs, run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(serial, rep) {
			t.Errorf("%s: CheckWith report differs from serial\nserial:\n%s\ngot:\n%s",
				name, serial.Format(), rep.Format())
		}
	}
}

// TestCheckWithSchedulesEverySegment pins that all per-segment work is
// routed through the supplied scheduler — the property the serving
// layer relies on to share one global concurrency bound.
func TestCheckWithSchedulesEverySegment(t *testing.T) {
	cfg, segs := mixedDesign(t, 23)
	var scheduled atomic.Int64
	counting := func(ctx context.Context, n int, fn func(context.Context, int) error) error {
		if n != len(segs) {
			t.Errorf("scheduler asked for %d tasks, want %d", n, len(segs))
		}
		for i := 0; i < n; i++ {
			scheduled.Add(1)
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := CheckWith(context.Background(), cfg, segs, counting); err != nil {
		t.Fatal(err)
	}
	if got := scheduled.Load(); got != int64(len(segs)) {
		t.Errorf("%d segments scheduled, want %d", got, len(segs))
	}
}

func TestCheckWithErrorMatchesSerial(t *testing.T) {
	cfg, segs := mixedDesign(t, 24)
	segs[5].Level = 99
	segs[17].Level = 98
	_, serialErr := Check(cfg, segs)
	if serialErr == nil {
		t.Fatal("expected serial error")
	}
	_, withErr := CheckWith(context.Background(), cfg, segs, boundedRunner(4))
	if withErr == nil {
		t.Fatal("expected CheckWith error")
	}
	if serialErr.Error() != withErr.Error() {
		t.Errorf("error mismatch:\nserial:    %v\nCheckWith: %v", serialErr, withErr)
	}
}

func TestCheckWithCancellation(t *testing.T) {
	cfg, segs := mixedDesign(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckWith(ctx, cfg, segs, boundedRunner(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// BenchmarkNetcheckParallel is the signoff throughput of one design
// checked through CheckWith on GOMAXPROCS bounded workers, against the
// serial baseline below.
func BenchmarkNetcheckParallel(b *testing.B) {
	cfg, segs := mixedDesign(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckWith(context.Background(), cfg, segs, boundedRunner(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetcheckSerial(b *testing.B) {
	cfg, segs := mixedDesign(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Check(cfg, segs); err != nil {
			b.Fatal(err)
		}
	}
}
