package lifetime

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the lifetime golden file")

// goldenQuantiles are the levels the golden reports pin, from the deep
// lower tail to the upper one.
var goldenQuantiles = []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99}

// goldenMinMaxTol bounds how far minYears and maxYears may move: they are
// single samples carried exactly, so a change of sampling kernel that
// rounds differently in the last bits moves them by a few ulps.
const goldenMinMaxTol = 1e-13

// binsDigest hashes a sketch's encoded state with the min and max fields
// cut out (bytes 36-52 of the dQS1 layout): alpha, the counts and every
// bin run, so two sketches with the same digest report the same
// quantiles.
func binsDigest(t *testing.T, enc []byte) string {
	t.Helper()
	if len(enc) < 60 || string(enc[:4]) != "dQS1" {
		t.Fatalf("sketch encoding is not dQS1 (%d bytes)", len(enc))
	}
	h := sha256.New()
	h.Write(enc[:36])
	h.Write(enc[52:])
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLine samples the benchmark census at (rho, seed) and renders its
// report: every value in shortest round-trip form, so the comparison is
// exact.
func goldenLine(t *testing.T, rho float64, seed int64) string {
	t.Helper()
	p := benchParams(rho, seed)
	p.Quantiles = goldenQuantiles
	m, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	sk := NewSketch()
	if err := m.SampleRange(sk, 0, m.Samples); err != nil {
		t.Fatal(err)
	}
	r, err := m.BuildReport(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "rho=%s seed=%d bins=%s median=%s min=%s max=%s",
		g(rho), seed, binsDigest(t, enc), g(r.MedianYears), g(r.MinYears), g(r.MaxYears))
	for _, q := range r.Quantiles {
		fmt.Fprintf(&b, " q%s=%s", g(q.P), g(q.TTFYears))
	}
	return b.String()
}

// TestLifetimeGolden pins the 200k-sample reports of the benchmark census
// at ρ ∈ {0, 0.3, 0.9} and two seeds: the quantiles, the median and the
// sketch's bins exactly, min and max to goldenMinMaxTol. Refresh only for
// an intended change of the sampled distribution:
//
//	go test ./internal/lifetime -run TestLifetimeGolden -update
func TestLifetimeGolden(t *testing.T) {
	var lines []string
	for _, rho := range []float64{0, 0.3, 0.9} {
		for _, seed := range []int64{17, 1001} {
			lines = append(lines, goldenLine(t, rho, seed))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d reports, want %d", len(want), len(lines))
	}
	for i := range lines {
		wf, gf := strings.Fields(want[i]), strings.Fields(lines[i])
		if len(wf) != len(gf) {
			t.Errorf("report %d shape changed:\n got %s\nwant %s", i, lines[i], want[i])
			continue
		}
		for k := range wf {
			key, wv, _ := strings.Cut(wf[k], "=")
			_, gv, _ := strings.Cut(gf[k], "=")
			if key != "min" && key != "max" {
				if gv != wv {
					t.Errorf("report %d: %s = %s, want %s exactly", i, key, gv, wv)
				}
				continue
			}
			w, err1 := strconv.ParseFloat(wv, 64)
			g, err2 := strconv.ParseFloat(gv, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("report %d: unparsable %s: %q / %q", i, key, wv, gv)
			}
			if rel := math.Abs(g-w) / w; rel > goldenMinMaxTol {
				t.Errorf("report %d: %s = %s, want %s (relative difference %.3g > %g)", i, key, gv, wv, rel, goldenMinMaxTol)
			}
		}
	}
}
