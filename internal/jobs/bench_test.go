package jobs

import (
	"fmt"
	"testing"
	"time"
)

// benchSweep is the chip-scale-ish workload the lane throughput numbers
// quote: a 32-point duty-cycle sweep (2 chunks) per job.
func benchSweep() SubmitRequest {
	return SubmitRequest{
		Type:  TypeSweep,
		Sweep: &SweepParams{Node: "0.10", Level: 4, Points: 32},
	}
}

// BenchmarkJobThroughput measures one job end to end — submit, chunked
// execution on the worker lane, finalize — with and without the journal,
// so the per-chunk checkpoint cost is visible next to the compute it
// amortizes against. The Monte Carlo cases (250 and 1000 chunks of 32
// samples) show how that cost scales with the chunk count.
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
	b.Run("inmem", func(b *testing.B) { run(b, Config{}, benchSweep()) })
	b.Run("journaled", func(b *testing.B) { run(b, Config{Dir: b.TempDir()}, benchSweep()) })
	for _, chunks := range []int{250, 1000} {
		req := SubmitRequest{
			Type: TypeMonteCarlo,
			MonteCarlo: &MonteCarloParams{
				Samples: chunks * mcChunkSamples, Seed: 7,
				WidthSigma: 0.05, ThickSigma: 0.05, ILDSigma: 0.05, KdSigma: 0.05,
			},
		}
		b.Run(fmt.Sprintf("mc%d/inmem", chunks), func(b *testing.B) { run(b, Config{}, req) })
		b.Run(fmt.Sprintf("mc%d/journaled", chunks), func(b *testing.B) { run(b, Config{Dir: b.TempDir()}, req) })
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
			v, err := m.Submit(benchSweep())
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
