package server

// Serving-path benchmarks: the cache and the end-to-end /v1/rules
// handler, cold vs. hot. Run with:
//
//	go test -bench=. -benchmem ./internal/server/
//
// BenchmarkServerRulesCached is the headline serving number — the cost
// of answering a rules query when the nonlinear solve is amortized away.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtherm/internal/core"
)

func benchServer(b *testing.B, cacheEntries int) *httptest.Server {
	b.Helper()
	s := New(Config{Workers: 4, CacheEntries: cacheEntries})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func doRules(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// BenchmarkServerRulesCached serves one identical rules query repeatedly:
// after the first iteration every solve is a cache hit.
func BenchmarkServerRulesCached(b *testing.B) {
	ts := benchServer(b, 1024)
	body := `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`
	doRules(b, ts, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doRules(b, ts, body)
	}
}

// BenchmarkServerRulesUncached disables the cache: every request pays the
// nonlinear solve and the deck-row generation. The gap to the cached
// benchmark is what the cache buys on the serving path.
func BenchmarkServerRulesUncached(b *testing.B) {
	ts := benchServer(b, -1)
	body := `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doRules(b, ts, body)
	}
}

// BenchmarkServerRulesThunderingHerd is the coalescer's headline
// number: every iteration fires a herd of identical COLD requests (the
// duty cycle is perturbed per iteration so the cache never answers) and
// the reported solves/herd metric shows how many of the herd actually
// paid for a solve — 1.0 is perfect coalescing, 8.0 is the
// pre-coalescer thundering herd.
func BenchmarkServerRulesThunderingHerd(b *testing.B) {
	const herd = 8
	s := New(Config{Workers: herd, CacheEntries: 1 << 16, AdmitConcurrent: 2 * herd})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"node":"0.25","level":5,"dutyCycle":%.12f,"j0MA":1.8}`,
			0.1+float64(i)*1e-9)
		errs := make(chan error, herd)
		var wg sync.WaitGroup
		for j := 0; j < herd; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("herd status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.metrics.Solves.Load())/float64(b.N), "solves/herd")
	b.ReportMetric(float64(s.flights.Coalesced())/float64(b.N), "coalesced/herd")
}

// BenchmarkBatchVsSerial compares 24 rules queries (8 unique, each
// asked three times — the CI-job shape) as 24 serial /v1/rules round
// trips vs. one /v1/batch request. trefC is perturbed per iteration so
// every round starts cold.
func BenchmarkBatchVsSerial(b *testing.B) {
	entries := func(i int) []string {
		out := make([]string, 0, 24)
		for j := 0; j < 24; j++ {
			out = append(out, fmt.Sprintf(
				`{"node":"0.25","level":%d,"dutyCycle":0.1,"j0MA":1.8,"trefC":%.9f}`,
				1+j%4, 100+float64(i)*1e-6))
		}
		return out
	}
	b.Run("Serial", func(b *testing.B) {
		ts := benchServer(b, 1<<16)
		for i := 0; i < b.N; i++ {
			for _, e := range entries(i) {
				doRules(b, ts, e)
			}
		}
	})
	b.Run("Batch", func(b *testing.B) {
		ts := benchServer(b, 1<<16)
		for i := 0; i < b.N; i++ {
			body := `{"requests":[` + strings.Join(entries(i), ",") + `]}`
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("batch status %d", resp.StatusCode)
			}
		}
	})
}

// BenchmarkCacheGetHit measures the raw shard-lock + LRU-promote cost.
func BenchmarkCacheGetHit(b *testing.B) {
	c := NewCache(4096)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve|0.25|||5|r%d", i)
		c.Add(keys[i], outcome[core.Solution]{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheGetHitParallel exercises shard-level contention.
func BenchmarkCacheGetHitParallel(b *testing.B) {
	c := NewCache(4096)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("solve|0.25|||5|r%d", i)
		c.Add(keys[i], outcome[core.Solution]{})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				b.Fatal("unexpected miss")
			}
		}
	})
}

// BenchmarkWarmStartVsCold prices the snapshot: one iteration boots a
// daemon and serves the 10-query working set — "cold" pays a nonlinear
// solve per distinct query, "warm" restores the persisted cache first
// and answers everything as hits. The gap is what -snapshot-path buys a
// restarted signoff daemon on its first wave.
func BenchmarkWarmStartVsCold(b *testing.B) {
	workload := snapWorkload()
	serveAll := func(b *testing.B, ts *httptest.Server) {
		for _, body := range workload {
			doRules(b, ts, body)
		}
	}

	// Build the snapshot once from a populated daemon.
	snap := filepath.Join(b.TempDir(), "bench.snap")
	seed := New(Config{Workers: 4, CacheEntries: 1024, SnapshotPath: snap})
	seedTS := httptest.NewServer(seed.Handler())
	serveAll(b, seedTS)
	seedTS.Close()
	if err := seed.SaveSnapshot(); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(Config{Workers: 4, CacheEntries: 1024})
			ts := httptest.NewServer(s.Handler())
			serveAll(b, ts)
			ts.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(Config{Workers: 4, CacheEntries: 1024, SnapshotPath: snap})
			for s.loading.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			ts := httptest.NewServer(s.Handler())
			serveAll(b, ts)
			ts.Close()
		}
	})
}

// BenchmarkQuarantineHit is the embargo fast path: the cost of
// rejecting a request whose canonical key is quarantined. This is the
// latency a poisoned key's clients see instead of a solver crash — it
// must stay trivially cheap, since its whole point is shedding load.
func BenchmarkQuarantineHit(b *testing.B) {
	s := New(Config{Workers: 4, CacheEntries: 256, QuarantineThreshold: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)

	body := `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`
	resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	// Find the canonical key via the cache the warm-up populated.
	var key string
	s.cache.Range(func(k string, v any) bool {
		if _, ok := v.(outcome[core.Solution]); ok {
			key = k
			return false
		}
		return true
	})
	if key == "" {
		b.Fatal("no solve key found to embargo")
	}
	if !s.quarantine.RecordFailure(key) {
		b.Fatal("threshold-1 failure did not embargo")
	}
	// The cache would answer before the gate; drop it so the request
	// exercises the quarantine rejection path.
	s.cache = NewCache(0)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/rules", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			b.Fatalf("status %d, want 422 quarantined", resp.StatusCode)
		}
	}
}
