package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/mathx"
)

// Metrics is the daemon's observability surface: expvar-style atomic
// counters, exported as one JSON document on GET /metrics. Everything is
// monotonic except the in-flight gauge, so scrapers can rate() the
// counters without resets.
type Metrics struct {
	start    time.Time
	inFlight atomic.Int64

	mu        sync.RWMutex
	endpoints map[string]*EndpointStats

	// Solver counters: every core.Solve the service runs (cache misses)
	// vs. solves answered from the cache. NoSolution counts only
	// core.ErrNoSolution outcomes (thermal runaway / exhausted EM
	// budget); other solver errors — bad problems — land in
	// SolveInvalid, so the runaway signal is not polluted by bad
	// requests.
	Solves       atomic.Uint64
	SolveCached  atomic.Uint64
	SolveNanos   atomic.Uint64
	NoSolution   atomic.Uint64
	SolveInvalid atomic.Uint64
	SegsChecked  atomic.Uint64
	Chipchecks   atomic.Uint64
	ChipSegments atomic.Uint64

	// Chipcheck operators built; the operator store counts its own hits.
	ChipOperatorBuilds atomic.Uint64

	// Synchronous /v1/lifetime traffic: requests served and Monte
	// Carlo samples drawn (job runs are accounted in the jobs section).
	Lifetimes       atomic.Uint64
	LifetimeSamples atomic.Uint64
	SweepPoints     atomic.Uint64
	DecksBuilt      atomic.Uint64
	DeckCacheHit    atomic.Uint64

	// Backpressure counters: requests rejected by admission control
	// (queue at depth → 429; queue wait exceeded → 503) and during the
	// shutdown drain (503).
	RejectedQueueFull atomic.Uint64
	RejectedQueueWait atomic.Uint64
	RejectedDraining  atomic.Uint64

	// Resilience counters. Panics counts panics recovered anywhere in
	// request handling (pool tasks, flight leaders, the route backstop —
	// each panic counted once, at the innermost boundary that converts
	// it). StaleServed counts cache hits served past the freshness
	// horizon while the breaker was degraded.
	Panics      atomic.Uint64
	StaleServed atomic.Uint64

	// Snapshot counters: saves and save failures (periodic + shutdown),
	// entries restored at boot, boot loads that found a corrupt or
	// unreadable file (and started cold), and entries skipped at save
	// time because their value is not snapshot-serializable (deck
	// results) or records a failure.
	SnapshotSaves        atomic.Uint64
	SnapshotSaveErrors   atomic.Uint64
	SnapshotLoaded       atomic.Uint64
	SnapshotLoadFailures atomic.Uint64
	SnapshotSkipped      atomic.Uint64

	// Job counters: HTTP-level accepts and cancels on /v1/jobs. The
	// manager's own lifecycle counters (chunks run, checkpoints, resumes)
	// come from jobs.Manager.Stats() in the snapshot's jobs section.
	JobsSubmitted atomic.Uint64
	JobsCancelled atomic.Uint64
}

// EndpointStats aggregates one route's traffic.
type EndpointStats struct {
	Requests   atomic.Uint64
	Errors     atomic.Uint64 // responses with status >= 400
	TotalNanos atomic.Uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: make(map[string]*EndpointStats)}
}

// Endpoint returns (creating if needed) the stats bucket for a route.
func (m *Metrics) Endpoint(route string) *EndpointStats {
	m.mu.RLock()
	es := m.endpoints[route]
	m.mu.RUnlock()
	if es != nil {
		return es
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if es = m.endpoints[route]; es == nil {
		es = &EndpointStats{}
		m.endpoints[route] = es
	}
	return es
}

// ObserveSolve records one solver invocation.
func (m *Metrics) ObserveSolve(d time.Duration, err error) {
	m.Solves.Add(1)
	m.SolveNanos.Add(uint64(d.Nanoseconds()))
	switch {
	case err == nil:
	case errors.Is(err, core.ErrNoSolution):
		m.NoSolution.Add(1)
	default:
		m.SolveInvalid.Add(1)
	}
}

// endpointSnapshot is the JSON shape of one route's stats.
type endpointSnapshot struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	AvgLatencyMs float64 `json:"avgLatencyMs"`
}

// Snapshot is the JSON document served on /metrics.
type Snapshot struct {
	UptimeSec  float64                     `json:"uptimeSec"`
	InFlight   int64                       `json:"inFlight"`
	Endpoints  map[string]endpointSnapshot `json:"endpoints"`
	Cache      CacheStats                  `json:"cache"`
	Solver     solverSnapshot              `json:"solver"`
	Netcheck   netcheckSnapshot            `json:"netcheck"`
	Chipcheck  chipcheckSnapshot           `json:"chipcheck"`
	Lifetime   lifetimeSnapshot            `json:"lifetime"`
	Pool       poolSnapshot                `json:"pool"`
	Admission  admissionSnapshot           `json:"admission"`
	Resilience resilienceSnapshot          `json:"resilience"`
	Jobs       *jobsSnapshot               `json:"jobs,omitempty"`
}

// jobsSnapshot reports the async job subsystem: the HTTP counters plus
// the manager's own lifecycle stats. Omitted entirely when the daemon
// runs without -jobs.
type jobsSnapshot struct {
	Submitted uint64     `json:"submitted"`
	Cancelled uint64     `json:"cancelled"`
	Manager   jobs.Stats `json:"manager"`
}

// resilienceSnapshot reports the failure-containment layer: recovered
// panics, degraded-mode serving, the poison-key quarantine, the circuit
// breaker, warm-restart snapshots, and the numeric health guards
// (process-wide mathx counters: CG divergence/stagnation trips, direct
// solves rejected by residual verification, fallback-ladder steps, and
// solves that exhausted the ladder).
type resilienceSnapshot struct {
	Panics      uint64                     `json:"panics"`
	StaleServed uint64                     `json:"staleServed"`
	Quarantine  quarantineSnapshot         `json:"quarantine"`
	Breaker     breakerSnapshot            `json:"breaker"`
	Snapshots   snapshotSnapshot           `json:"snapshot"`
	Numeric     mathx.NumericStatsSnapshot `json:"numeric"`
}

type quarantineSnapshot struct {
	Active      int64  `json:"active"`
	Tracked     int64  `json:"tracked"`
	Quarantined uint64 `json:"quarantined"`
	Hits        uint64 `json:"quarantineHits"`
	Released    uint64 `json:"released"`
}

type breakerSnapshot struct {
	Degraded      bool              `json:"degraded"`
	States        map[string]string `json:"states,omitempty"`
	Trips         uint64            `json:"trips"`
	ShortCircuits uint64            `json:"shortCircuits"`
	Probes        uint64            `json:"probes"`
	Reclosed      uint64            `json:"reclosed"`
}

type snapshotSnapshot struct {
	Saves         uint64 `json:"saves"`
	SaveErrors    uint64 `json:"saveErrors"`
	LoadedEntries uint64 `json:"loadedEntries"`
	LoadFailures  uint64 `json:"loadFailures"`
	Skipped       uint64 `json:"skippedEntries"`
}

// poolSnapshot reports worker-pool occupancy.
type poolSnapshot struct {
	Size  int `json:"size"`
	InUse int `json:"inUse"`
}

// admissionSnapshot reports the backpressure state: gate occupancy, the
// wait-queue, and the rejection counters.
type admissionSnapshot struct {
	Slots             int    `json:"slots"`
	InUse             int    `json:"inUse"`
	Waiting           int64  `json:"waiting"`
	QueueDepth        int    `json:"queueDepth"`
	RejectedQueueFull uint64 `json:"rejectedQueueFull"`
	RejectedQueueWait uint64 `json:"rejectedQueueWait"`
	RejectedDraining  uint64 `json:"rejectedDraining"`
}

type solverSnapshot struct {
	Solves       uint64  `json:"solves"`
	CacheHits    uint64  `json:"cacheHits"`
	NoSolution   uint64  `json:"noSolution"`
	Invalid      uint64  `json:"invalid"`
	AvgSolveUs   float64 `json:"avgSolveUs"`
	SweepPoints  uint64  `json:"sweepPoints"`
	DecksBuilt   uint64  `json:"decksBuilt"`
	DeckCacheHit uint64  `json:"deckCacheHits"`
}

type netcheckSnapshot struct {
	SegmentsChecked uint64 `json:"segmentsChecked"`
}

// chipcheckSnapshot reports the synchronous /v1/chipcheck traffic (job
// runs are accounted in the jobs section) and its operator store: hits,
// builds and the bytes retained.
type chipcheckSnapshot struct {
	Checks         uint64 `json:"checks"`
	Segments       uint64 `json:"segments"`
	OperatorHits   uint64 `json:"operatorHits"`
	OperatorBuilds uint64 `json:"operatorBuilds"`
	OperatorBytes  int64  `json:"operatorBytes"`
}

// lifetimeSnapshot reports the synchronous /v1/lifetime traffic (job
// runs are accounted in the jobs section).
type lifetimeSnapshot struct {
	Requests uint64 `json:"requests"`
	Samples  uint64 `json:"samples"`
}

// snapshot collects the current counter values.
func (s *Server) snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		UptimeSec: time.Since(m.start).Seconds(),
		InFlight:  m.inFlight.Load(),
		Endpoints: make(map[string]endpointSnapshot),
	}
	m.mu.RLock()
	routes := make([]string, 0, len(m.endpoints))
	for r := range m.endpoints {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		es := m.endpoints[r]
		n := es.Requests.Load()
		e := endpointSnapshot{Requests: n, Errors: es.Errors.Load()}
		if n > 0 {
			e.AvgLatencyMs = float64(es.TotalNanos.Load()) / float64(n) / 1e6
		}
		snap.Endpoints[r] = e
	}
	m.mu.RUnlock()
	snap.Cache = s.cache.Stats()
	snap.Cache.Coalesced = s.flights.Coalesced()
	snap.Cache.Flights = s.flights.Led()
	snap.Cache.FlightsActive = s.flights.Active()
	snap.Cache.FlightWaiters = s.flights.Waiting()
	snap.Solver = solverSnapshot{
		Solves:       m.Solves.Load(),
		CacheHits:    m.SolveCached.Load(),
		NoSolution:   m.NoSolution.Load(),
		Invalid:      m.SolveInvalid.Load(),
		SweepPoints:  m.SweepPoints.Load(),
		DecksBuilt:   m.DecksBuilt.Load(),
		DeckCacheHit: m.DeckCacheHit.Load(),
	}
	if n := m.Solves.Load(); n > 0 {
		snap.Solver.AvgSolveUs = float64(m.SolveNanos.Load()) / float64(n) / 1e3
	}
	snap.Netcheck = netcheckSnapshot{SegmentsChecked: m.SegsChecked.Load()}
	snap.Chipcheck = chipcheckSnapshot{
		Checks:         m.Chipchecks.Load(),
		Segments:       m.ChipSegments.Load(),
		OperatorHits:   s.operators.hits.Load(),
		OperatorBuilds: m.ChipOperatorBuilds.Load(),
		OperatorBytes:  int64(s.operators.Cost()),
	}
	snap.Lifetime = lifetimeSnapshot{Requests: m.Lifetimes.Load(), Samples: m.LifetimeSamples.Load()}
	snap.Pool = poolSnapshot{Size: s.pool.Size(), InUse: s.pool.InUse()}
	snap.Admission = admissionSnapshot{
		Slots:             s.admission.Slots(),
		InUse:             s.admission.InUse(),
		Waiting:           s.admission.Waiting(),
		QueueDepth:        s.admission.QueueDepth(),
		RejectedQueueFull: m.RejectedQueueFull.Load(),
		RejectedQueueWait: m.RejectedQueueWait.Load(),
		RejectedDraining:  m.RejectedDraining.Load(),
	}
	q, b := s.quarantine, s.breaker
	snap.Resilience = resilienceSnapshot{
		Panics:      m.Panics.Load(),
		StaleServed: m.StaleServed.Load(),
		Quarantine: quarantineSnapshot{
			Active:      q.Active(),
			Tracked:     q.Tracked(),
			Quarantined: q.Quarantined(),
			Hits:        q.Hits(),
			Released:    q.Released(),
		},
		Breaker: breakerSnapshot{
			Degraded:      b.Degraded(),
			States:        b.States(),
			Trips:         b.Trips(),
			ShortCircuits: b.ShortCircuits(),
			Probes:        b.Probes(),
			Reclosed:      b.Reclosed(),
		},
		Snapshots: snapshotSnapshot{
			Saves:         m.SnapshotSaves.Load(),
			SaveErrors:    m.SnapshotSaveErrors.Load(),
			LoadedEntries: m.SnapshotLoaded.Load(),
			LoadFailures:  m.SnapshotLoadFailures.Load(),
			Skipped:       m.SnapshotSkipped.Load(),
		},
		Numeric: mathx.NumericStats(),
	}
	if s.jobs != nil {
		snap.Jobs = &jobsSnapshot{
			Submitted: m.JobsSubmitted.Load(),
			Cancelled: m.JobsCancelled.Load(),
			Manager:   s.jobs.Stats(),
		}
	}
	return snap
}

// instrument wraps a handler with request counting, latency accounting
// and the in-flight gauge.
func (m *Metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	es := m.Endpoint(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Deferred so a panicking handler (recovered per connection by
		// net/http) still decrements the gauge and counts the request —
		// an inline decrement would leak in-flight forever on a
		// long-running daemon.
		defer func() {
			m.inFlight.Add(-1)
			es.Requests.Add(1)
			es.TotalNanos.Add(uint64(time.Since(start).Nanoseconds()))
			if sw.status >= 400 {
				es.Errors.Add(1)
			}
		}()
		h(sw, r)
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// writeJSON renders v as indented JSON and reports whether the body was
// written. The body is encoded before the status goes out, so a value
// the encoder rejects (a ±Inf or NaN field) is answered as a 422
// numeric_failure rather than an empty 200; that, or a failed write (the
// client is gone, so there is no one to tell), returns false, and
// handlers count a completed request only on true. The bytes are
// json.MarshalIndent's plus a newline: Encode ends the compact form with
// one and appendIndented keeps it, as json.Indent keeps trailing space.
func writeJSON(w http.ResponseWriter, status int, v any) bool {
	e := jsonEncoders.Get().(*jsonEncoder)
	defer e.release()
	if err := e.enc.Encode(v); err != nil {
		writeError(w, fmt.Errorf("%w: encode response: %v", mathx.ErrNumeric, err))
		return false
	}
	e.body = appendIndented(slices.Grow(e.body[:0], 2*e.compact.Len()), e.compact.Bytes())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(e.body)
	return err == nil
}

// appendIndented appends src to dst indented two spaces a level, the
// bytes json.Indent(dst, src, "", "  ") appends. It is one pass with no
// validation, so src must be encoding/json's compact output: no space
// outside strings but a trailing newline, which it keeps. Strings are
// copied whole, up to the first quote not escaped by a backslash;
// every other byte is punctuation or part of a number or literal.
func appendIndented(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := i + 1
			for {
				end += bytes.IndexByte(src[end:], '"')
				k := end
				for src[k-1] == '\\' {
					k--
				}
				if (end-k)%2 == 0 {
					break
				}
				end++
			}
			dst = append(dst, src[i:end+1]...)
			i = end
		case '{', '[':
			dst = append(dst, c)
			if next := src[i+1]; next == '}' || next == ']' {
				// An empty object or array stays {} or [].
				dst = append(dst, next)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for d := 0; d < depth; d++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// jsonEncoder is a compact json.Encoder over its own buffer plus the
// buffer the indented body goes to, pooled so a reply copies its body
// into no fresh buffers. The indent is a second pass, not the encoder's
// SetIndent, so the body buffer can be sized to twice the compact body
// up front, as MarshalIndent sizes it, where SetIndent grows its buffer
// by appends from whatever size the pool handed out.
type jsonEncoder struct {
	compact bytes.Buffer
	body    []byte
	enc     *json.Encoder
}

// maxPooledBody caps the buffers a pooled encoder keeps: the encoder of
// a larger body (a 200-segment netcheck, a 256-entry batch) is left to
// the GC rather than pinning its buffers in the pool.
const maxPooledBody = 64 << 10

var jsonEncoders = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.compact)
	return e
}}

func (e *jsonEncoder) release() {
	if e.compact.Cap() > maxPooledBody || cap(e.body) > maxPooledBody {
		return
	}
	e.compact.Reset()
	jsonEncoders.Put(e)
}
