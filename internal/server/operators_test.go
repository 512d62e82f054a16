package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/faultinject"
)

// chipParams is a 12×12 grid fed by its pad ring and one centre pad.
func chipParams() chipcheck.Params {
	return chipcheck.Params{
		Nx: 12, Ny: 12, PadRing: true, Pads: []chipcheck.NodeRef{{I: 6, J: 6}},
		UniformLoadA: fptr(1.2), Loads: []chipcheck.LoadSpec{{I: 4, J: 5, Amps: 0.3}},
	}
}

func fptr(v float64) *float64 { return &v }

// postChip posts p to /v1/chipcheck through h and returns the body of
// its 200 reply.
func postChip(t *testing.T, h http.Handler, p chipcheck.Params) []byte {
	t.Helper()
	sh := postChipRaw(h, p)
	if sh.status != http.StatusOK {
		t.Fatalf("status %d: %s", sh.status, sh.body)
	}
	return sh.body
}

// coldReply is the reply the route owes p: Compile, Solve on a private
// operator, Verdicts and Report, encoded as the handler encodes it.
func coldReply(t *testing.T, p chipcheck.Params) []byte {
	t.Helper()
	c, err := chipcheck.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Verdicts(f, 0, c.NumBranches())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Report(f, v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	if !writeJSON(rec, http.StatusOK, res) {
		t.Fatal("cold reply did not encode")
	}
	return rec.Body.Bytes()
}

// operatorCounts reads the store's counters from /metrics.
func operatorCounts(t *testing.T, h http.Handler) chipcheckSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Chipcheck
}

// TestChipcheckOperatorPerGeometry: changing any one geometry field
// makes the route build a new operator, and every reply is byte for
// byte the cold solve's. /metrics counts one build per geometry, and
// hits for new loads on a geometry already seen.
func TestChipcheckOperatorPerGeometry(t *testing.T) {
	h := New(Config{Workers: 2}).Handler()
	variants := map[string]func(p *chipcheck.Params){
		"node":           func(p *chipcheck.Params) { p.Node = "0.10" },
		"gap":            func(p *chipcheck.Params) { p.Gap = "polyimide" },
		"metal":          func(p *chipcheck.Params) { p.Metal = "AlCu" },
		"hLevel":         func(p *chipcheck.Params) { p.HLevel = 4 },
		"vLevel":         func(p *chipcheck.Params) { p.VLevel = 3 },
		"nx":             func(p *chipcheck.Params) { p.Nx = 13 },
		"ny":             func(p *chipcheck.Params) { p.Ny = 11 },
		"pitchXUm":       func(p *chipcheck.Params) { p.PitchXUm = fptr(150) },
		"pitchYUm":       func(p *chipcheck.Params) { p.PitchYUm = fptr(250) },
		"widthMultiple":  func(p *chipcheck.Params) { p.WidthMultiple = fptr(6) },
		"padRing":        func(p *chipcheck.Params) { p.PadRing = false },
		"pads":           func(p *chipcheck.Params) { p.Pads = append(p.Pads, chipcheck.NodeRef{I: 3, J: 3}) },
		"trefC":          func(p *chipcheck.Params) { p.TrefC = fptr(85) },
		"sheetCondWPerK": func(p *chipcheck.Params) { p.SheetCondWPerK = fptr(0.02) },
		"sinkWPerM2K":    func(p *chipcheck.Params) { p.SinkWPerM2K = fptr(2e4) },
	}
	base := chipParams()
	if got, want := postChip(t, h, base), coldReply(t, base); !bytes.Equal(got, want) {
		t.Fatalf("base reply differs from its cold solve:\n%s\nwant\n%s", got, want)
	}
	builds := uint64(1)
	for name, change := range variants {
		p := chipParams()
		change(&p)
		if got, want := postChip(t, h, p), coldReply(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from its cold solve:\n%s\nwant\n%s", name, got, want)
		}
		builds++
		if c := operatorCounts(t, h); c.OperatorBuilds != builds || c.OperatorHits != 0 {
			t.Errorf("%s: %d builds and %d hits, want %d and 0", name, c.OperatorBuilds, c.OperatorHits, builds)
		}
	}
	// New loads and a new budget on the base geometry: a hit.
	p := chipParams()
	p.Loads[0].Amps = 0.4
	p.J0MA, p.MaxIter = fptr(1.5), nil
	if got, want := postChip(t, h, p), coldReply(t, p); !bytes.Equal(got, want) {
		t.Errorf("new loads: reply differs from its cold solve:\n%s\nwant\n%s", got, want)
	}
	c := operatorCounts(t, h)
	if c.OperatorBuilds != builds || c.OperatorHits != 1 || c.OperatorBytes <= 0 {
		t.Errorf("new loads: %+v, want %d builds, 1 hit and bytes retained", c, builds)
	}
}

// TestChipcheckOperatorPadOrder: the same pad set listed in another
// order is the same geometry, so the second request hits the store,
// and its reply is the cold solve's.
func TestChipcheckOperatorPadOrder(t *testing.T) {
	h := New(Config{Workers: 2}).Handler()
	p := chipParams()
	p.Pads = []chipcheck.NodeRef{{I: 6, J: 6}, {I: 3, J: 8}, {I: 0, J: 4}}
	postChip(t, h, p)
	p.Pads = []chipcheck.NodeRef{{I: 3, J: 8}, {I: 0, J: 4}, {I: 6, J: 6}}
	if got, want := postChip(t, h, p), coldReply(t, p); !bytes.Equal(got, want) {
		t.Fatalf("reordered pads: reply differs from its cold solve:\n%s\nwant\n%s", got, want)
	}
	if c := operatorCounts(t, h); c.OperatorBuilds != 1 || c.OperatorHits != 1 {
		t.Fatalf("%d builds and %d hits, want 1 and 1", c.OperatorBuilds, c.OperatorHits)
	}
}

// TestChipcheckOperatorConcurrent: eight requests with different loads
// run at once on one kept operator (run it under -race), and each reply
// is its cold solve's.
func TestChipcheckOperatorConcurrent(t *testing.T) {
	h := New(Config{Workers: 4}).Handler()
	postChip(t, h, chipParams())
	ps := make([]chipcheck.Params, 8)
	want := make([][]byte, len(ps))
	for i := range ps {
		ps[i] = chipParams()
		ps[i].Loads = []chipcheck.LoadSpec{{I: 2 + i, J: 9 - i, Amps: 0.2 + 0.03*float64(i)}}
		want[i] = coldReply(t, ps[i])
	}
	got := make([]chipShot, len(ps))
	var wg sync.WaitGroup
	for i := range ps {
		postChipAsync(h, ps[i], &wg, &got[i])
	}
	wg.Wait()
	for i := range ps {
		if got[i].status != http.StatusOK || !bytes.Equal(got[i].body, want[i]) {
			t.Errorf("request %d: status %d, reply differs from its cold solve:\n%s\nwant\n%s", i, got[i].status, got[i].body, want[i])
		}
	}
	if c := operatorCounts(t, h); c.OperatorBuilds != 1 || c.OperatorHits != uint64(len(ps)) {
		t.Fatalf("%d builds and %d hits, want 1 and %d", c.OperatorBuilds, c.OperatorHits, len(ps))
	}
}

// TestChipcheckOperatorBudget: more 48×32 geometries than the budget
// holds keep the retained bytes within it, evicting the least recently
// used, and an operator larger than the budget is solved but not kept.
func TestChipcheckOperatorBudget(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	medium := func(pitch float64) chipcheck.Params {
		return chipcheck.Params{
			Nx: 48, Ny: 32, WidthMultiple: fptr(8), PadRing: true, PitchXUm: fptr(pitch),
			UniformLoadA: fptr(12), Loads: []chipcheck.LoadSpec{{I: 24, J: 16, Amps: 1.5}},
		}
	}
	c, err := chipcheck.Compile(medium(200))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	fit := chipOperatorBudget / op.Bytes()
	for i := 0; i <= fit; i++ {
		postChip(t, h, medium(200+float64(i)))
		if b := operatorCounts(t, h).OperatorBytes; b > chipOperatorBudget {
			t.Fatalf("after %d geometries the store retains %d bytes, over its %d budget", i+1, b, chipOperatorBudget)
		}
	}
	postChip(t, h, medium(200)) // evicted: the least recently used
	if got := s.metrics.ChipOperatorBuilds.Load(); got != uint64(fit+2) {
		t.Fatalf("%d builds, want %d (the first geometry rebuilt after eviction)", got, fit+2)
	}

	// A store smaller than one medium operator keeps a small one, and
	// refuses the medium one without evicting the small one for it.
	s.operators = newStore(1, op.Bytes()-1, operatorCost)
	postChip(t, h, chipParams())
	for i := 0; i < 2; i++ {
		if got, want := postChip(t, h, medium(200)), coldReply(t, medium(200)); !bytes.Equal(got, want) {
			t.Fatalf("reply differs from its cold solve")
		}
	}
	if got := s.metrics.ChipOperatorBuilds.Load(); got != uint64(fit+5) {
		t.Fatalf("%d builds, want %d: an operator over budget must not be kept", got, fit+5)
	}
	small, err := chipcheck.Compile(chipParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, kept := s.operators.lookup(operatorKey(small)); !kept || s.operators.Len() != 1 {
		t.Fatalf("the store keeps %d operators (the small one: %v), want only the small one", s.operators.Len(), kept)
	}
}

// TestOperatorStoreLRU: the store evicts the least recently used
// operator, not the oldest, and its gauge reads what it retains.
func TestOperatorStoreLRU(t *testing.T) {
	var checks []*chipcheck.Check
	for i := 0; i < 3; i++ {
		p := chipParams()
		p.Nx = 10 + i
		c, err := chipcheck.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		checks = append(checks, c)
	}
	sizes := make([]int, len(checks))
	for i, c := range checks {
		op, err := c.NewOperator()
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = op.Bytes()
	}
	// Room for the first and the third (the largest): keeping the third
	// evicts the second once the first has been used since.
	s := New(Config{Workers: 2})
	s.operators = newStore(1, sizes[0]+sizes[2], operatorCost)
	get := func(i int) {
		if _, err := s.operator(context.Background(), checks[i]); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // 1 is now the least recently used
	get(2)
	c := operatorCounts(t, s.Handler())
	if c.OperatorBytes != int64(sizes[0]+sizes[2]) || c.OperatorBuilds != 3 || c.OperatorHits != 1 {
		t.Fatalf("%+v, want %d bytes retained, 3 builds and 1 hit", c, sizes[0]+sizes[2])
	}
	for i, want := range []bool{true, false, true} {
		if _, _, kept := s.operators.lookup(operatorKey(checks[i])); kept != want {
			t.Errorf("operator %d kept = %v, want %v", i, kept, want)
		}
	}
}

// TestRunReleasesOperators: once Run has drained, the server keeps no
// operator, though the Server value stays reachable.
func TestRunReleasesOperators(t *testing.T) {
	s := New(Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()
	body, err := json.Marshal(chipParams())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/chipcheck", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || s.operators.Cost() == 0 {
		t.Fatalf("status %d, %d operator bytes kept", resp.StatusCode, s.operators.Cost())
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n, b := s.operators.Len(), operatorCounts(t, s.Handler()).OperatorBytes; n != 0 || b != 0 {
		t.Fatalf("a stopped server keeps %d operators (%d bytes)", n, b)
	}
}

// chipShot is one concurrent /v1/chipcheck reply.
type chipShot struct {
	status int
	header http.Header
	body   []byte
}

// postChipAsync posts p through h on its own goroutine.
func postChipAsync(h http.Handler, p chipcheck.Params, wg *sync.WaitGroup, out *chipShot) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		*out = postChipRaw(h, p)
	}()
}

// postChipRaw posts p through h and returns the reply, whatever its
// status.
func postChipRaw(h http.Handler, p chipcheck.Params) chipShot {
	body, _ := json.Marshal(p)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/chipcheck", bytes.NewReader(body)))
	return chipShot{rec.Code, rec.Header(), rec.Body.Bytes()}
}

// postRules posts a rules query through h.
func postRules(h http.Handler, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rules", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// isOperatorKey matches the flight metadata of an operator build.
func isOperatorKey(meta string) bool { return strings.HasPrefix(meta, "chip|") }

// TestChipcheckOperatorCoalesces: concurrent first requests on one
// geometry build one operator. The leader's build is held open until
// every other request waits on its flight, as the thundering-herd test
// holds its solve, so no request can be answered early from the store.
func TestChipcheckOperatorCoalesces(t *testing.T) {
	const herd = 4
	s := New(Config{Workers: herd, AdmitConcurrent: 2 * herd})
	h := s.Handler()
	p := chipParams()
	want := coldReply(t, p)

	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall()
	stall := faultinject.Stall(release)
	t.Cleanup(faultinject.Set(faultinject.SiteServerFlight, func(ctx context.Context) error {
		if isOperatorKey(faultinject.Meta(ctx)) {
			return stall(ctx)
		}
		return nil
	}))

	shots := make([]chipShot, herd)
	var wg sync.WaitGroup
	for i := range shots {
		postChipAsync(h, p, &wg, &shots[i])
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.flights.Waiting() != herd-1 {
		if time.Now().After(deadline) {
			unstall()
			wg.Wait()
			t.Fatalf("%d concurrent first requests never met on one flight: %d waiting, %d builds",
				herd, s.flights.Waiting(), s.metrics.ChipOperatorBuilds.Load())
		}
		time.Sleep(time.Millisecond)
	}
	unstall()
	wg.Wait()
	for i, sh := range shots {
		if sh.status != http.StatusOK || !bytes.Equal(sh.body, want) {
			t.Errorf("request %d: status %d, reply differs from its cold solve:\n%s", i, sh.status, sh.body)
		}
	}
	if b, c := s.metrics.ChipOperatorBuilds.Load(), s.flights.Coalesced(); b != 1 || c != herd-1 {
		t.Fatalf("%d builds and %d coalesced requests, want 1 and %d", b, c, herd-1)
	}
}

// TestChipcheckOperatorQuarantine: a geometry whose operator build
// panics answers a structured 500 until QuarantineThreshold builds have
// failed, then 422 quarantined with Retry-After, while a kept geometry
// and a rules query keep answering 200.
func TestChipcheckOperatorQuarantine(t *testing.T) {
	const threshold = 3
	s := New(Config{Workers: 2, QuarantineThreshold: threshold, BreakerThreshold: 1000})
	h := s.Handler()
	kept := chipParams()
	postChip(t, h, kept)
	wantKept := coldReply(t, kept)
	t.Cleanup(faultinject.Set(faultinject.SiteServerFlight, faultinject.PanicOnMeta(isOperatorKey, "poisoned build")))

	poison := chipParams()
	poison.Nx = 13
	for i := 0; i < threshold+2; i++ {
		sh := postChipRaw(h, poison)
		wantStatus, wantCode := http.StatusInternalServerError, "internal"
		if i >= threshold {
			wantStatus, wantCode = http.StatusUnprocessableEntity, "quarantined"
			if sh.header.Get("Retry-After") == "" {
				t.Errorf("request %d: quarantined reply without Retry-After", i)
			}
		}
		if sh.status != wantStatus || errorCode(t, sh.body) != wantCode {
			t.Errorf("request %d: status %d %s, want %d %s", i, sh.status, sh.body, wantStatus, wantCode)
		}
		if got := postChip(t, h, kept); !bytes.Equal(got, wantKept) {
			t.Errorf("request %d: the kept geometry's reply differs from its cold solve", i)
		}
		if status, body := postRules(h, `{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`); status != http.StatusOK {
			t.Errorf("request %d: rules query answered %d: %s", i, status, body)
		}
	}
	if p, q := s.metrics.Panics.Load(), s.quarantine.Quarantined(); p != threshold || q != 1 {
		t.Fatalf("%d panics and %d keys quarantined, want %d and 1", p, q, threshold)
	}
}

// TestChipcheckOperatorBreakerOpen: while the breaker is open, a new
// geometry is answered 503 breaker_open with Retry-After and a kept one
// still serves its cold solve's bytes. An operator is not an answer, so
// its hit is never served stale.
func TestChipcheckOperatorBreakerOpen(t *testing.T) {
	s := New(Config{
		Workers: 2, BreakerThreshold: 3, BreakerWindow: time.Minute, BreakerCooldown: time.Minute,
		BreakerStaleAfter: time.Nanosecond, QuarantineThreshold: 1000,
	})
	h := s.Handler()
	kept := chipParams()
	postChip(t, h, kept)
	t.Cleanup(faultinject.Set(faultinject.SiteServerFlight, func(ctx context.Context) error {
		if isOperatorKey(faultinject.Meta(ctx)) {
			return errors.New("operator backend down")
		}
		return nil
	}))
	for i := 0; i < 3; i++ {
		p := chipParams()
		p.Nx = 13 + i
		if sh := postChipRaw(h, p); sh.status != http.StatusInternalServerError {
			t.Fatalf("storm request %d: status %d, want 500: %s", i, sh.status, sh.body)
		}
	}
	if !s.breaker.Degraded() {
		t.Fatal("three failed builds did not open the breaker")
	}
	fresh := chipParams()
	fresh.Ny = 13
	sh := postChipRaw(h, fresh)
	if sh.status != http.StatusServiceUnavailable || errorCode(t, sh.body) != "breaker_open" || sh.header.Get("Retry-After") == "" {
		t.Errorf("new geometry while open: status %d, Retry-After %q: %s", sh.status, sh.header.Get("Retry-After"), sh.body)
	}
	time.Sleep(time.Millisecond) // past the stale horizon
	if got, want := postChip(t, h, kept), coldReply(t, kept); !bytes.Equal(got, want) {
		t.Errorf("kept geometry while open: reply differs from its cold solve:\n%s", got)
	}
	if n := s.metrics.StaleServed.Load(); n != 0 {
		t.Errorf("staleServed = %d after a chipcheck hit, want 0", n)
	}
}
