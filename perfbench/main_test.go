package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/server"
)

// assertTornDown checks what every exit path must leave: no daemon port
// accepting connections and no journal directory.
func assertTornDown(t *testing.T, b *bench) {
	t.Helper()
	if len(b.daemons) == 0 {
		t.Fatal("no daemon was started")
	}
	for _, d := range b.daemons {
		if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
			c.Close()
			t.Errorf("daemon port %s still accepts connections", d.addr)
		}
		if _, err := os.Stat(d.dir); !os.IsNotExist(err) {
			t.Errorf("journal dir %s still exists (stat: %v)", d.dir, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(b.workdir, "journal-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("journal dirs left behind: %v (%v)", left, err)
	}
}

// TestWorkloadsTearDown runs a tiny instance of each workload, the
// interactive one traced, and checks the result and the teardown.
func TestWorkloadsTearDown(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			b := newBench(w, 3, time.Second, w == interactive, t.TempDir(), io.Discard)
			res, err := b.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("result %+v", res)
			}
			want := endToEndMetrics
			if b.traced {
				want = perLayerMetrics()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
			assertTornDown(t, b)
		})
	}
}

// TestInterruptTearsDown cancels a run mid-window, as SIGINT, SIGTERM
// and the watchdog do, and checks that it stops and cleans up.
func TestInterruptTearsDown(t *testing.T) {
	b := newBench(contended, 4, 30*time.Second, false, t.TempDir(), io.Discard)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := b.run(ctx); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("interrupted run took %v to return", d)
	}
	assertTornDown(t, b)
}

// TestChecksCatchWrongAnswers feeds the deep checks replies that differ
// from the direct computation in one field.
func TestChecksCatchWrongAnswers(t *testing.T) {
	ctx := context.Background()
	b := newBench(chipscale, 1, time.Second, false, t.TempDir(), io.Discard)
	k := ruleKey{Node: "0.10", Level: 3, Duty: 0.25}
	a, err := directRules(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	good := &server.RulesResponse{Node: k.Node, Level: k.Level, DutyCycle: k.Duty, Solve: a.solve, Rule: a.rule}
	bad := *good
	bad.Solve.TmC += 1e-9

	g := newGen(1, 1, b.keys)
	lp := g.census(20000)
	rep, err := directLifetime(b.tr, lp, &lifetimeReplay{})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(rep)
	rep.Quantiles[0].TTFYears *= 1.0000001
	badBody, _ := json.Marshal(rep)

	st := newClientStats()
	st.samples = []sample{
		{kind: "rules", key: k, reply: good},
		{kind: "rules", key: k, reply: &bad},
		{kind: "lifetime", params: lp, body: body},
		{kind: "lifetime", params: lp, body: badBody},
	}
	b.verify(ctx, st, &lifetimeReplay{})
	if st.failed != 2 {
		t.Fatalf("%d failed checks, want 2: %v", st.failed, st.failures)
	}
	for _, f := range st.failures {
		if !strings.Contains(f, "check rules") && !strings.Contains(f, "check lifetime") {
			t.Errorf("failure does not name its check: %s", f)
		}
	}
}

// TestGeneratorsInRange compiles every kind of generated input with the
// daemon's own validators, over many draws.
func TestGeneratorsInRange(t *testing.T) {
	keys := newKeySpace(5)
	if len(keys) < 30000 || len(keys) > 31000 {
		t.Errorf("key space %d, want about 30k", len(keys))
	}
	for _, k := range keys {
		if !(k.Duty > 0 && k.Duty <= 1) {
			t.Fatalf("duty cycle %v out of (0, 1]", k.Duty)
		}
	}
	g := newGen(5, 1, keys)
	for i := 0; i < 20; i++ {
		df := g.design()
		if _, err := df.Tech(); err != nil {
			t.Fatal(err)
		}
		tech, _ := df.Tech()
		if _, err := df.MaterializeSegments(tech); err != nil {
			t.Fatal(err)
		}
		for _, p := range []chipcheck.Params{g.mediumGrid(), g.smallGrid(), g.jobGrid()} {
			if _, err := chipcheck.Compile(p); err != nil {
				t.Fatal(err)
			}
		}
		if jg := g.jobGrid(); jg.Nx*jg.Ny <= 4096 {
			t.Errorf("job grid %dx%d fits the synchronous cap", jg.Nx, jg.Ny)
		}
		if _, err := lifetime.Compile(g.census(200000)); err != nil {
			t.Fatal(err)
		}
		cycle := g.jobCycle()
		if m, err := lifetime.Compile(*cycle[0].Lifetime); err != nil || (m.Samples+lifetimeChunk-1)/lifetimeChunk < 100 {
			t.Errorf("lifetime job: %v, want at least 100 chunks", err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// the ones this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d: %s, program %s", i, w.Name, workloads[i])
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, program %d", what, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics())
}
