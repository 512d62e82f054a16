package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client's request id, shared by the
// client's root span and the server-handler span it caused.
const requestIDHeader = "X-Request-Id"

// span is one timed interval. Client requests are roots (ID = request
// id); a handler span's Parent is the request id; direct-call spans
// have no parent and no request id. Times are ns since the tracer's
// origin.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	ReqID  uint64 `json:"requestId,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while switched on. It also hands out
// request ids, which are sent whether or not spans are recorded, so the
// traced and untraced runs put the same bytes on the wire.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
	bytes map[string][]float64 // response sizes by operation kind
}

func newTracer() *tracer { return &tracer{origin: time.Now(), bytes: map[string][]float64{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reply records a client root span and the reply's size.
func (t *tracer) reply(kind string, s span, size int) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.bytes[kind] = append(t.bytes[kind], float64(size))
	t.mu.Unlock()
}

// timed runs fn as a direct-call span named name.
func (t *tracer) timed(name string, fn func() error) error {
	start := t.now()
	err := fn()
	t.record(span{Name: name, Start: start, End: t.now(), ID: t.ids.Add(1)})
	return err
}

// wrap puts a server-handler span around h.ServeHTTP.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rid, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{Name: "server." + routeOf(r.URL.Path), Start: start, End: t.now(), ID: t.ids.Add(1), Parent: rid, ReqID: rid})
	})
}

// routeOf names a request path by its route: /v1/rules is "rules", and
// every /v1/jobs path is "jobs".
func routeOf(path string) string {
	rest := strings.TrimPrefix(path, "/v1/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups spans for the per-layer metrics.
type spanIndex struct {
	byName  map[string][]span
	handler map[uint64]span // server-handler span by request id
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, handler: map[uint64]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if strings.HasPrefix(s.Name, "server.") {
			ix.handler[s.ReqID] = s
		}
	}
	return ix
}

// durations returns the durations in ms of the spans named name.
func (ix spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, s.ms())
	}
	return out
}

// handlerAndOutside returns, per request of an operation kind, the
// server-handler span's duration and the client round trip minus it:
// the root span's self time.
func (ix spanIndex) handlerAndOutside(kind string) (handler, outside []float64) {
	for _, s := range ix.byName["client."+kind] {
		if h, ok := ix.handler[s.ID]; ok {
			handler = append(handler, h.ms())
			outside = append(outside, s.ms()-h.ms())
		}
	}
	return handler, outside
}
