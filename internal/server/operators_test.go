package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dsmtherm/internal/chipcheck"
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
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/chipcheck", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
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
	got := make([][]byte, len(ps))
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = postChip(t, h, ps[i])
		}()
	}
	wg.Wait()
	for i := range ps {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d: reply differs from its cold solve:\n%s\nwant\n%s", i, got[i], want[i])
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
		if b := s.metrics.ChipOperatorBytes.Load(); b > chipOperatorBudget {
			t.Fatalf("after %d geometries the store retains %d bytes, over its %d budget", i+1, b, chipOperatorBudget)
		}
	}
	postChip(t, h, medium(200)) // evicted: the least recently used
	if got := s.metrics.ChipOperatorBuilds.Load(); got != uint64(fit+2) {
		t.Fatalf("%d builds, want %d (the first geometry rebuilt after eviction)", got, fit+2)
	}

	s.operators = newOperatorStore(op.Bytes()-1, s.metrics)
	for i := 0; i < 2; i++ {
		if got, want := postChip(t, h, medium(200)), coldReply(t, medium(200)); !bytes.Equal(got, want) {
			t.Fatalf("reply differs from its cold solve")
		}
	}
	if got := s.metrics.ChipOperatorBuilds.Load(); got != uint64(fit+4) {
		t.Fatalf("%d builds, want %d: an operator over budget must not be kept", got, fit+4)
	}
	if n := len(s.operators.byKey); n != 0 {
		t.Fatalf("the store keeps %d operators over its budget", n)
	}
}

// TestOperatorStoreLRU: the store evicts the least recently used
// operator, not the oldest, and its gauge reads what it retains.
func TestOperatorStoreLRU(t *testing.T) {
	m := NewMetrics()
	var ops []*chipcheck.Check
	for i := 0; i < 3; i++ {
		p := chipParams()
		p.Nx = 10 + i
		c, err := chipcheck.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, c)
	}
	sizes := make([]int, len(ops))
	for i, c := range ops {
		op, err := c.NewOperator()
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = op.Bytes()
	}
	// Room for the first and the third (the largest): keeping the third
	// evicts the second once the first has been used since.
	st := newOperatorStore(sizes[0]+sizes[2], m)
	get := func(i int) {
		if _, err := st.get(ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // 1 is now the least recently used
	get(2)
	for i, want := range []bool{true, false, true} {
		if _, kept := st.byKey[ops[i].Key()]; kept != want {
			t.Errorf("operator %d kept = %v, want %v", i, kept, want)
		}
	}
	if st.bytes != sizes[0]+sizes[2] || int64(st.bytes) != m.ChipOperatorBytes.Load() {
		t.Fatalf("retained %d bytes (gauge %d), want %d", st.bytes, m.ChipOperatorBytes.Load(), sizes[0]+sizes[2])
	}
	if b, h := m.ChipOperatorBuilds.Load(), m.ChipOperatorHits.Load(); b != 3 || h != 1 {
		t.Fatalf("%d builds and %d hits, want 3 and 1", b, h)
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
	if resp.StatusCode != http.StatusOK || s.metrics.ChipOperatorBytes.Load() == 0 {
		t.Fatalf("status %d, %d operator bytes kept", resp.StatusCode, s.metrics.ChipOperatorBytes.Load())
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n, b := len(s.operators.byKey), s.metrics.ChipOperatorBytes.Load(); n != 0 || b != 0 {
		t.Fatalf("a stopped server keeps %d operators (%d bytes)", n, b)
	}
}
