package jobs

import (
	"fmt"
	"testing"
	"time"
)

// benchSweep is a duty-cycle sweep job of the given size. At 32 points
// (one chunk) it is nearly all per-job lane overhead.
func benchSweep(points int) SubmitRequest {
	return SubmitRequest{
		Type:  TypeSweep,
		Sweep: &SweepParams{Node: "0.10", Level: 4, Points: points},
	}
}

// BenchmarkJobThroughput measures one job end to end — submit, chunked
// execution on the worker lane, finalize — with and without the journal,
// so the per-chunk checkpoint cost is visible next to the compute it
// amortizes against. The small sweep is nearly all per-job overhead; the
// 10000-point sweep (10 chunks) and the Monte Carlo cases (8000 and
// 32000 samples, 8 and 32 chunks) show the checkpoint cost beside real
// work.
func BenchmarkJobThroughput(b *testing.B) {
	run := func(b *testing.B, cfg Config, req SubmitRequest) {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := m.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			done, err := m.Done(v.ID)
			if err != nil {
				b.Fatal(err)
			}
			<-done
			if _, err := m.Result(v.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := m.Stats()
		b.ReportMetric(float64(st.ChunksRun)/float64(b.N), "chunks/job")
		b.ReportMetric(float64(st.JournalBytes)/float64(b.N), "journalB/job")
	}
	b.Run("inmem", func(b *testing.B) { run(b, Config{}, benchSweep(32)) })
	b.Run("journaled", func(b *testing.B) { run(b, Config{Dir: b.TempDir()}, benchSweep(32)) })
	b.Run("sweep10000/inmem", func(b *testing.B) { run(b, Config{}, benchSweep(10000)) })
	b.Run("sweep10000/journaled", func(b *testing.B) { run(b, Config{Dir: b.TempDir()}, benchSweep(10000)) })
	for _, samples := range []int{8000, 32000} {
		req := SubmitRequest{
			Type: TypeMonteCarlo,
			MonteCarlo: &MonteCarloParams{
				Samples: samples, Seed: 7,
				WidthSigma: 0.05, ThickSigma: 0.05, ILDSigma: 0.05, KdSigma: 0.05,
			},
		}
		b.Run(fmt.Sprintf("mc%d/inmem", samples), func(b *testing.B) { run(b, Config{}, req) })
		b.Run(fmt.Sprintf("mc%d/journaled", samples), func(b *testing.B) { run(b, Config{Dir: b.TempDir()}, req) })
	}
}

// BenchmarkJobRetryOverhead pins the happy-path cost of the chunk
// supervisor: with retries disabled versus fully armed (retry ladder,
// retry budget, stuck-chunk watchdog), no chunk ever fails, so any
// difference is pure supervision overhead — budget accounting, the
// per-attempt watchdog context, and classification plumbing.
func BenchmarkJobRetryOverhead(b *testing.B) {
	run := func(b *testing.B, cfg Config) {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := m.Submit(benchSweep(32))
			if err != nil {
				b.Fatal(err)
			}
			done, err := m.Done(v.ID)
			if err != nil {
				b.Fatal(err)
			}
			<-done
			if _, err := m.Result(v.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := m.Stats()
		if st.ChunkRetries != 0 || st.ChunksQuarantined != 0 {
			b.Fatalf("happy path retried/quarantined: %+v", st)
		}
	}
	b.Run("unsupervised", func(b *testing.B) { run(b, Config{ChunkRetries: -1}) })
	b.Run("supervised", func(b *testing.B) {
		run(b, Config{ChunkRetries: 3, ChunkDeadline: time.Minute})
	})
}
