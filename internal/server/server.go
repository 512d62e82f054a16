// Package server is the long-running serving layer over the dsmtherm
// library: an HTTP/JSON daemon exposing self-consistent design rules
// (Eq. 13), duty-cycle sweeps, and batch netlist signoff as a service.
//
// The one-shot CLIs rebuild the rules deck and re-solve the nonlinear
// self-consistent equation from scratch on every invocation; the server
// amortizes that work across requests with a sharded LRU keyed on
// canonicalized solve inputs (deck generation and core.Solve are
// deterministic, so a hit skips the solve entirely), bounds solver
// concurrency with a shared worker pool, and exports request, cache and
// solver counters on /metrics.
//
// Routes:
//
//	POST /v1/rules    — self-consistent limits for one node/level/duty cycle
//	POST /v1/sweep    — duty-cycle sweep fanned across the worker pool
//	POST /v1/batch    — many rules queries in one round trip, deduplicated
//	POST /v1/netcheck — batch signoff of a netcheck design JSON
//	GET  /v1/tech     — technology inspection
//	GET  /metrics     — counters (JSON)
//	GET  /healthz     — liveness (pure: 200 while the process serves)
//	GET  /readyz      — readiness (503 while draining or while the boot
//	                    snapshot is still loading)
//
// Concurrent cache misses on the same canonical key are coalesced
// (singleflight): one request leads the solve, the rest wait for its
// result, so a thundering herd of identical cold queries performs one
// solve, not N.
//
// The serving path is wrapped in a resilience layer (see recover.go,
// quarantine.go, breaker.go, snapshot.go): panics anywhere in request
// handling become structured 500s, keys that fail deterministically are
// quarantined with fast 422s, repeated failures trip a per-class
// circuit breaker that serves stale cache hits while the solver path is
// degraded, and the cache's working set survives restarts via atomic
// snapshots.
package server

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/jobs"
)

// Config sizes the daemon.
type Config struct {
	// Workers bounds concurrent solver tasks across all requests
	// (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the solve/deck cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// RequestTimeout caps one request's work (default 30s).
	RequestTimeout time.Duration
	// EndpointTimeouts overrides RequestTimeout per route (key is the
	// route path, e.g. "/v1/sweep"). Routes not listed use
	// RequestTimeout.
	EndpointTimeouts map[string]time.Duration
	// DrainTimeout caps graceful-shutdown draining (default 15s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxSweepPoints caps one sweep request's fan-out (default 4096).
	MaxSweepPoints int
	// MaxBatch caps the entry count of one /v1/batch request
	// (default 256).
	MaxBatch int
	// MaxSegments caps the segment count of one /v1/netcheck design
	// (default 10000; negative disables the cap) so one giant design
	// cannot monopolize the pool.
	MaxSegments int
	// MaxChipNodes caps the grid node count of one synchronous
	// /v1/chipcheck request (default 4096; negative disables the cap).
	// Bigger grids belong on the bulk job lane ("chipcheck" job type),
	// where the coupled solve does not hold an HTTP connection or a
	// pool slot for seconds.
	MaxChipNodes int
	// MaxLifetimeSamples caps the Monte Carlo size of one synchronous
	// /v1/lifetime request (default 200000; negative disables the
	// cap). Bigger studies belong on the bulk job lane ("lifetime" job
	// type), which checkpoints progress as mergeable sketch states.
	MaxLifetimeSamples int

	// AdmitConcurrent bounds how many solver-bearing requests
	// (/v1/rules, /v1/sweep, /v1/netcheck) may be in flight at once
	// (default 2×Workers). Cheap routes — /v1/tech, /metrics, /healthz
	// — are never gated.
	AdmitConcurrent int
	// QueueDepth bounds how many further solver-bearing requests may
	// wait for admission; beyond it requests are rejected immediately
	// with 429 (default 4×AdmitConcurrent; negative allows no waiting).
	QueueDepth int
	// QueueWait caps how long a request waits for admission before a
	// 503 (default 2s, clamped below RequestTimeout; additionally
	// clamped per request to the route's remaining deadline budget in
	// Admission.Acquire).
	QueueWait time.Duration

	// QuarantineThreshold is how many quarantine-eligible failures
	// (panics, unclassified internal errors — never core.ErrNoSolution
	// or validation outcomes) one canonical key may accumulate within
	// QuarantineWindow before the key is embargoed (default 3; negative
	// disables the quarantine).
	QuarantineThreshold int
	// QuarantineWindow is the failure-counting window (default 1m).
	QuarantineWindow time.Duration
	// QuarantineTTL is how long an embargoed key answers 422
	// "quarantined" before it may try again (default 30s).
	QuarantineTTL time.Duration
	// QuarantineEntries bounds the failure-record store (default 1024).
	// The bound is independent of CacheEntries: poison-key records can
	// never evict healthy solve results.
	QuarantineEntries int

	// BreakerThreshold is how many failures of one class within
	// BreakerWindow trip that class's circuit (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerWindow is the breaker's failure-counting window
	// (default 10s).
	BreakerWindow time.Duration
	// BreakerCooldown is how long a tripped class stays open before
	// half-open probing (default 5s).
	BreakerCooldown time.Duration
	// BreakerStaleAfter is the freshness horizon for degraded serving:
	// while the breaker is open, cache hits older than this are still
	// served but marked "stale":true (default 1m).
	BreakerStaleAfter time.Duration

	// Jobs, when non-nil, enables the durable async job subsystem on
	// POST/GET/DELETE /v1/jobs. The server adapts it to HTTP; the
	// manager's lifecycle (Stop after drain, or Kill in crash tests)
	// stays with whoever constructed it.
	Jobs *jobs.Manager

	// SnapshotPath, when set, enables crash-safe warm restarts: the
	// solve cache's working set is written there (atomic temp+rename,
	// versioned header, checksum) periodically and on shutdown, and
	// loaded on boot — a corrupt or truncated file starts the daemon
	// cold, never kills it.
	SnapshotPath string
	// SnapshotInterval is the periodic snapshot cadence (default 5m;
	// negative disables periodic saves, keeping only the shutdown one).
	SnapshotInterval time.Duration
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxSegments == 0 {
		c.MaxSegments = 10000
	}
	if c.MaxChipNodes == 0 {
		c.MaxChipNodes = 4096
	}
	if c.MaxLifetimeSamples == 0 {
		c.MaxLifetimeSamples = 200000
	}
	if c.AdmitConcurrent <= 0 {
		c.AdmitConcurrent = 2 * c.Workers
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.AdmitConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.QueueWait > c.RequestTimeout {
		c.QueueWait = c.RequestTimeout
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineWindow <= 0 {
		c.QuarantineWindow = time.Minute
	}
	if c.QuarantineTTL <= 0 {
		c.QuarantineTTL = 30 * time.Second
	}
	if c.QuarantineEntries <= 0 {
		c.QuarantineEntries = 1024
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerStaleAfter <= 0 {
		c.BreakerStaleAfter = time.Minute
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 5 * time.Minute
	}
}

// timeoutFor returns the deadline budget for one route.
func (c *Config) timeoutFor(route string) time.Duration {
	if d, ok := c.EndpointTimeouts[route]; ok && d > 0 {
		return d
	}
	return c.RequestTimeout
}

// Server holds the shared state behind the handlers.
type Server struct {
	cfg        Config
	pool       *Pool
	cache      *Cache
	metrics    *Metrics
	admission  *Admission
	quarantine *Quarantine
	breaker    *Breaker
	jobs       *jobs.Manager
	flights    flightGroup
	operators  *Cache // chipcheck operators by geometry, one shard
	mux        *http.ServeMux

	// draining is raised before the HTTP listener starts closing so new
	// work is rejected with a structured 503 instead of racing the
	// listener teardown. In-flight requests (already past the check)
	// drain normally.
	draining atomic.Bool

	// loading is raised while the boot-time snapshot restore is still
	// running; /readyz reports 503 until it clears. Serving does not
	// block on it — early requests just miss the cache.
	loading atomic.Bool

	// snapMu serializes snapshot writers (the periodic saver vs the
	// final shutdown save) so two saves never interleave on the temp
	// file.
	snapMu sync.Mutex

	// testHookStarted, when set (tests only), is called once a request
	// is past metrics accounting — it lets shutdown tests hold a request
	// in flight deterministically.
	testHookStarted func(route string)
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:        cfg,
		pool:       NewPool(cfg.Workers),
		cache:      NewCache(cfg.CacheEntries),
		metrics:    NewMetrics(),
		admission:  NewAdmission(cfg.AdmitConcurrent, cfg.QueueDepth, cfg.QueueWait),
		quarantine: NewQuarantine(cfg.QuarantineThreshold, cfg.QuarantineWindow, cfg.QuarantineTTL, cfg.QuarantineEntries),
		breaker:    NewBreaker(cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown),
		jobs:       cfg.Jobs,
	}
	// The pool task and flight leader recovery boundaries share one
	// panic counter with the route backstop; recoverTo counts at the
	// innermost boundary that converts, so a single panic is never
	// double-counted.
	s.pool.panics = &s.metrics.Panics
	s.flights.panics = &s.metrics.Panics
	s.operators = newStore(1, chipOperatorBudget, operatorCost)
	s.mux = http.NewServeMux()
	s.route("POST /v1/rules", s.handleRules, gated)
	s.route("POST /v1/sweep", s.handleSweep, gated)
	s.route("POST /v1/batch", s.handleBatch, gated)
	s.route("POST /v1/netcheck", s.handleNetcheck, gated)
	s.route("POST /v1/chipcheck", s.handleChipcheck, gated)
	s.route("POST /v1/lifetime", s.handleLifetime, gated)
	s.route("GET /v1/tech", s.handleTech, ungated)
	// Job routes stay off the admission gate: submission is cheap
	// validate-and-journal with its own lane-depth backpressure, and the
	// compute runs on the manager's dedicated workers, not the pool.
	s.route("POST /v1/jobs", s.handleJobSubmit, ungated)
	s.route("GET /v1/jobs/{id}", s.handleJobGet, ungated)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult, ungated)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel, ungated)
	s.route("GET /metrics", s.handleMetrics, ungated)
	s.route("GET /healthz", s.handleHealthz, ungated)
	s.route("GET /readyz", s.handleReadyz, ungated)
	if cfg.SnapshotPath != "" {
		// Restore off the serving path: the listener can accept while
		// the snapshot streams in; /readyz holds back the load balancer
		// until the working set is warm.
		s.loading.Store(true)
		go s.loadSnapshot()
	}
	return s
}

// Route admission classes: solver-bearing routes go through the
// admission queue; cheap routes (and /metrics, which must stay readable
// during overload) bypass it.
const (
	ungated = false
	gated   = true
)

func (s *Server) route(pattern string, h http.HandlerFunc, admit bool) {
	routeName := pattern[strings.IndexByte(pattern, ' ')+1:]
	timeout := s.cfg.timeoutFor(routeName)
	// Observability routes stay reachable during drain: /metrics so
	// operators can watch the drain itself, /healthz because liveness
	// must not flap during a graceful restart, /readyz because its whole
	// job is to report "draining" to the load balancer.
	bypassDrain := routeName == "/metrics" || routeName == "/healthz" || routeName == "/readyz"
	s.mux.HandleFunc(pattern, s.metrics.instrument(routeName, func(w http.ResponseWriter, r *http.Request) {
		// Backstop recovery boundary: anything that panics outside the
		// pool-task and flight-leader boundaries (decode helpers,
		// response marshaling, the handlers themselves) becomes a
		// structured 500 on this connection instead of killing the
		// process. The deferred admission release and ctx cancel below
		// run during the same unwind, so a panic can never leak an
		// admission token; instrument's own defer keeps the in-flight
		// gauge and latency accounting exact.
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.metrics.Panics.Add(1)
			pe := &panicError{site: "handler:" + routeName, value: rec}
			log.Printf("server: recovered panic at %s: %v\n%s", pe.site, rec, debug.Stack())
			writeError(w, pe)
		}()
		// Drain-exempt routes aside, everything else bounces with a
		// structured 503 so load balancers stop routing here. Requests
		// past this gate are "in flight" and drain normally.
		if s.draining.Load() && !bypassDrain {
			s.metrics.RejectedDraining.Add(1)
			writeError(w, ErrDraining)
			return
		}
		if s.testHookStarted != nil {
			s.testHookStarted(routeName)
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if admit {
			release, err := s.admission.Acquire(ctx)
			if err != nil {
				switch {
				case errors.Is(err, ErrQueueFull):
					s.metrics.RejectedQueueFull.Add(1)
				case errors.Is(err, ErrQueueWait):
					s.metrics.RejectedQueueWait.Add(1)
				}
				writeError(w, err)
				return
			}
			defer release()
		}
		h(w, r)
	}))
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the solve cache (tests and the daemon banner).
func (s *Server) Cache() *Cache { return s.cache }

// Pool exposes the worker pool (the daemon banner).
func (s *Server) Pool() *Pool { return s.pool }

// Admission exposes the admission gate (the daemon banner).
func (s *Server) Admission() *Admission { return s.admission }

// Run serves on ln until ctx is cancelled, then shuts down gracefully,
// draining in-flight requests for up to Config.DrainTimeout. It returns
// nil after a clean drain.
//
// Shutdown ordering: the drain flag is raised BEFORE http.Server.Shutdown
// starts closing the listener, so any request that still reaches a
// handler during teardown gets a structured 503 ("draining") instead of
// racing the listener close; requests already in flight when the flag
// rises complete normally.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotInterval > 0 {
		go s.snapshotLoop(ctx)
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed
	// Nothing serves from the kept chipcheck operators after the drain,
	// so a stopped Server pins none of them, however long it stays
	// reachable.
	s.operators.clear()
	if s.cfg.SnapshotPath != "" {
		// Final save after the drain, so the snapshot captures the full
		// working set including results from the last in-flight wave. A
		// save failure is logged and counted, never fatal to shutdown.
		if err := s.SaveSnapshot(); err != nil {
			log.Printf("server: shutdown snapshot: %v", err)
		}
	}
	return nil
}

// snapshotLoop writes periodic snapshots until ctx ends.
func (s *Server) snapshotLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.SaveSnapshot(); err != nil {
				log.Printf("server: periodic snapshot: %v", err)
			}
		}
	}
}

// Canonical cache keys. Floats are rendered with strconv 'x' (hex, exact
// round-trip), so two requests hit the same entry iff their solve inputs
// are bit-identical — no tolerance guessing, no false sharing. String
// fields are length-prefixed rather than '|'-joined: client-supplied
// selectors may themselves contain the separator, and plain joining
// would let ("a", "b|c") and ("a|b", "c") collide on one cache entry
// (the key-encoder fuzz target locks this property). Each key is
// appended into a stack buffer, so building one allocates only the
// returned string.
func keyFloat(b []byte, x float64) []byte {
	return strconv.AppendFloat(append(b, '|'), x, 'x', -1, 64)
}

func keyInt(b []byte, n int) []byte {
	return strconv.AppendInt(append(b, '|'), int64(n), 10)
}

func keyStr(b []byte, s string) []byte {
	b = strconv.AppendInt(append(b, '|'), int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

// keyBuf is the stack buffer a key is built in; it fits any key whose
// selectors are short, and a longer one spills to the heap.
type keyBuf [192]byte

// solveKey canonicalizes one self-consistent solve on a technology level.
func solveKey(node, gap, metal string, level int, lengthM, r, j0, tref float64) string {
	var buf keyBuf
	b := append(buf[:0], "solve"...)
	b = keyStr(b, node)
	b = keyStr(b, gap)
	b = keyStr(b, metal)
	b = keyInt(b, level)
	b = keyFloat(b, lengthM)
	b = keyFloat(b, r)
	b = keyFloat(b, j0)
	b = keyFloat(b, tref)
	return string(b)
}

// levelRuleKey canonicalizes one deck-level rule generation. Every Spec
// field the generated rule depends on (J0 and Tref — signal/power
// limits, Tm, Blech length and ESD widths all shift with Tref) must be
// part of the key, or requests differing only in that field would
// silently share a row.
func levelRuleKey(node, gap, metal string, level int, j0, tref float64) string {
	var buf keyBuf
	b := append(buf[:0], "rule"...)
	b = keyStr(b, node)
	b = keyStr(b, gap)
	b = keyStr(b, metal)
	b = keyInt(b, level)
	b = keyFloat(b, j0)
	b = keyFloat(b, tref)
	return string(b)
}

// deckKey canonicalizes a whole-deck generation (netcheck path).
func deckKey(node, gap, metal string, j0MA float64) string {
	var buf keyBuf
	b := append(buf[:0], "deck"...)
	b = keyStr(b, node)
	b = keyStr(b, gap)
	b = keyStr(b, metal)
	b = keyFloat(b, j0MA)
	return string(b)
}

// outcome is what the cache stores for a key: the computed value and its
// error, success or not. Solves and deck rows are deterministic, so
// remembering failures (ErrNoSolution, validation errors) is as sound as
// remembering values and shields the solver from repeated doomed
// requests.
type outcome[V any] struct {
	v   V
	err error
}

// gateMiss applies the resilience gates to one cache miss, in order:
// the quarantine first (per-key memory of recent failures), then the
// circuit breaker (global degradation). The returned probe flag must be
// passed back into recordMiss so a half-open probe's outcome reaches
// the breaker even when the probe rides a coalesced flight.
func (s *Server) gateMiss(key string) (probe bool, err error) {
	if retry, quarantined := s.quarantine.Check(key); quarantined {
		return false, withRetryHint(ErrQuarantined, retry)
	}
	probe, retry, ok := s.breaker.Allow()
	if !ok {
		return false, withRetryHint(ErrBreakerOpen, retry)
	}
	return probe, nil
}

// recordMiss reports one miss outcome to the quarantine and breaker.
// Coalesced waiters share their leader's single outcome, so only the
// leader records — except that a waiter holding the breaker's probe
// token must still report, or the half-open state would deadlock on a
// token that nobody returns. Lifecycle errors (the request died, not
// the computation) are neutral: they release the probe without counting
// for or against anything.
func (s *Server) recordMiss(key string, err error, coalesced, probe bool) {
	class := failureClass(err)
	if !coalesced {
		switch {
		case class != "":
			s.quarantine.RecordFailure(key)
		case isLifecycleErr(err):
		default:
			s.quarantine.RecordSuccess(key)
		}
	}
	if !coalesced || probe {
		switch {
		case class != "":
			s.breaker.RecordFailure(class, probe)
		case isLifecycleErr(err):
			s.breaker.ProbeDone(probe)
		default:
			s.breaker.RecordSuccess(probe)
		}
	}
}

// markStale reports whether a cache hit stored at `at` should carry
// "stale":true — only while the breaker is degraded and the entry has
// aged past the freshness horizon. While healthy, age is irrelevant:
// solves are deterministic, a hit is a hit.
func (s *Server) markStale(at time.Time) bool {
	if !s.breaker.Degraded() || time.Since(at) <= s.cfg.BreakerStaleAfter {
		return false
	}
	s.metrics.StaleServed.Add(1)
	return true
}

// cached answers key from store or, on a miss, through the resilience
// gates and the flight group: concurrent misses on the same key block
// on one in-flight compute instead of each recomputing. A hit returns
// when its value was stored. Cancellation outcomes are never stored
// (they describe the request's lifecycle, not the problem), and neither
// are unclassified internal failures (cacheableOutcome); those feed the
// quarantine and breaker instead. Only a flight leader calls compute,
// so a hit builds no technology. The leader looks in the store again
// first: a request can miss the store and reach the flight group only
// after the previous flight on its key has stored its outcome and
// ended, and it then answers from that outcome instead of computing it
// again.
func cached[V any](ctx context.Context, s *Server, store *Cache, key string, compute func() (V, error)) (v V, hit bool, at time.Time, coalesced bool, err error) {
	if c, at, ok := store.GetAt(key); ok {
		o := c.(outcome[V])
		return o.v, true, at, false, o.err
	}
	probe, err := s.gateMiss(key)
	if err != nil {
		return v, false, at, false, err
	}
	var x any
	x, coalesced, err = s.flights.Do(ctx, key, func() (any, error) {
		if c, _, ok := store.lookup(key); ok {
			o := c.(outcome[V])
			return o.v, o.err
		}
		v, err := compute()
		if ctx.Err() == nil && cacheableOutcome(err) {
			store.Add(key, outcome[V]{v, err})
		}
		return v, err
	})
	s.recordMiss(key, err, coalesced, probe)
	v, _ = x.(V)
	return v, false, at, coalesced, err
}

// cachedResult is cached on the result cache: a hit counts in hits and
// carries the breaker's stale mark. The operator store's hits carry
// neither, since an operator is not an answer and the store counts its
// own hits.
func cachedResult[V any](ctx context.Context, s *Server, key string, hits *atomic.Uint64, compute func() (V, error)) (v V, hit, coalesced, stale bool, err error) {
	v, hit, at, coalesced, err := cached(ctx, s, s.cache, key, compute)
	if hit {
		hits.Add(1)
		stale = s.markStale(at)
	}
	return v, hit, coalesced, stale, err
}

// solveCached runs core.SolveCtx through cached; problem builds the
// solve's inputs, for a flight leader only.
func (s *Server) solveCached(ctx context.Context, key string, problem func() (core.Problem, error)) (sol core.Solution, hit, coalesced, stale bool, err error) {
	return cachedResult(ctx, s, key, &s.metrics.SolveCached, func() (core.Solution, error) {
		p, err := problem()
		if err != nil {
			return core.Solution{}, err
		}
		start := time.Now()
		sol, err := core.SolveCtx(ctx, p)
		s.metrics.ObserveSolve(time.Since(start), err)
		return sol, err
	})
}
