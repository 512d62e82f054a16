package chipcheck

import (
	"context"
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

var updateGolden = flag.Bool("update", false, "rewrite golden chipcheck files")

// goldenFloat renders a value with 9 significant digits — tighter than
// the physics is meaningful, loose enough to ride out last-ulp noise
// (same convention as the rules golden decks).
func goldenFloat(x float64) string {
	return strconv.FormatFloat(x, 'e', 9, 64)
}

func dumpVerdict(b *strings.Builder, v *Verdict) {
	fmt.Fprintf(b, "seg %d M%d j=%s tm=%s ratio=%s imm=%t %s\n",
		v.Branch, v.Level, goldenFloat(v.JMA), goldenFloat(v.TmC), goldenFloat(v.Ratio), v.Immortal, v.Code)
}

// dumpResult renders a chipcheck outcome as canonical high-precision
// text. Summary, residual trace and worst list are dumped in full; the
// segment stream is strided so the medium fixture stays a few hundred
// lines while still pinning segments from every region of the grid.
func dumpResult(res *Result, f *Field) string {
	var b strings.Builder
	s := res.Summary
	fmt.Fprintf(&b, "grid nodes=%d branches=%d pads=%d\n", s.Nodes, s.Branches, s.Pads)
	fmt.Fprintf(&b, "loop converged=%t iters=%d finalResid=%s tol=%s\n",
		s.Converged, s.Iterations, goldenFloat(s.FinalResidualK), goldenFloat(s.TolK))
	fmt.Fprintf(&b, "drop worst=%s at=(%d,%d) limit=%s ok=%t\n",
		goldenFloat(s.WorstDropV), s.WorstDropNode.I, s.WorstDropNode.J, goldenFloat(s.DropLimitV), s.DropOK)
	fmt.Fprintf(&b, "thermal maxJ=%s hottest=%s maxDT=%s\n",
		goldenFloat(s.MaxJMA), goldenFloat(s.HottestTmC), goldenFloat(s.MaxDeltaTK))
	fmt.Fprintf(&b, "verdicts idle=%d immortal=%d pass=%d fail=%d ok=%t\n",
		s.Idle, s.Immortal, s.Pass, s.Fail, s.OK)
	fmt.Fprintf(&b, "ratios p1=%s p10=%s p50=%s\n",
		goldenFloat(s.RatioP1), goldenFloat(s.RatioP10), goldenFloat(s.RatioP50))
	for i, r := range f.Residuals {
		fmt.Fprintf(&b, "resid %d %s\n", i, goldenFloat(r))
	}
	b.WriteString("worst:\n")
	for i := range res.Worst {
		dumpVerdict(&b, &res.Worst[i])
	}
	stride := 1
	if len(res.Segments) > 512 {
		stride = (len(res.Segments) + 511) / 512
	}
	fmt.Fprintf(&b, "segments n=%d stride=%d:\n", len(res.Segments), stride)
	for i := 0; i < len(res.Segments); i += stride {
		dumpVerdict(&b, &res.Segments[i])
	}
	return b.String()
}

// goldenSHA256 pins the exact bytes of the checked-in chipcheck golden
// files. TestGoldenFixtures proves the current pipeline reproduces the
// text; this guard proves the files themselves were not silently
// regenerated (`-update` churn changes hashes even when the new text
// would still match a changed generator).
var goldenSHA256 = map[string]string{
	"small":  "be26fb2bc0bc0ff40df0282d3d5e5219550a4bfbae616ade230f292ab03b25dd",
	"medium": "9b62db8c6d0dbceab2a4f0f0a8c2a9d02578240d9761f1de4df605d2f747f99f",
}

func TestGoldenChipcheckByteIdentical(t *testing.T) {
	for name, want := range goldenSHA256 {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: golden file bytes changed (sha256 %s, want %s)", name, got, want)
		}
	}
}

// goldenCases are the fixtures the golden files pin.
var goldenCases = []struct {
	name string
	p    func() Params
}{
	{"small", smallFixture},
	{"medium", mediumFixture},
}

// goldenDump runs the full coupled pipeline on p and renders it.
func goldenDump(t *testing.T, p Params) string {
	t.Helper()
	c := mustCompile(t, p)
	f, err := c.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Converged {
		t.Fatalf("golden fixture must converge; residuals %v", f.Residuals)
	}
	verdicts, err := c.Verdicts(f, 0, c.NumBranches())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Report(f, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	return dumpResult(res, f)
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// TestGoldenFixtures locks the full coupled pipeline — IR drop, thermal
// map, fixed point, EM verdicts, summary — against checked-in golden
// files for both fixtures. Refresh intentionally with:
//
//	go test ./internal/chipcheck -run TestGoldenFixtures -update
//
// and only after TestGoldenFixturesWithinTolerance has passed against
// the files being replaced.
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenDump(t, tc.p())
			path := goldenPath(tc.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("chipcheck drifted from golden %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// goldenRelTol bounds how far a numeric golden field may move under a
// change of solver (rung, ordering, summation order): the linear solves
// are converged to 1e-12 relative, so 1e-8 leaves room for the fixed
// point's differencing without admitting a change of physics.
const goldenRelTol = 1e-8

// TestGoldenFixturesWithinTolerance is the behaviour check behind a
// re-pin: the pinned files match the current pipeline in every numeric
// field to goldenRelTol, in every verdict code, count and flag exactly,
// and in the worst list entry by entry matched on segment id (M5/M6
// strap pairs tie to 9 digits and may swap order).
func TestGoldenFixturesWithinTolerance(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			worst := compareGolden(t, string(want), goldenDump(t, tc.p()))
			t.Logf("largest relative difference %.3g", worst)
		})
	}
}

// compareGolden checks got against want line by line (the worst list by
// segment id) and returns the largest relative difference seen.
func compareGolden(t *testing.T, want, got string) float64 {
	t.Helper()
	wantLines, wantWorst := splitGolden(want)
	gotLines, gotWorst := splitGolden(got)
	if len(wantLines) != len(gotLines) || len(wantWorst) != len(gotWorst) {
		t.Fatalf("golden shape: %d lines and %d worst entries, want %d and %d",
			len(gotLines), len(gotWorst), len(wantLines), len(wantWorst))
	}
	worst := 0.0
	for i := range wantLines {
		worst = max(worst, compareGoldenLine(t, wantLines[i], gotLines[i]))
	}
	for seg, w := range wantWorst {
		g, ok := gotWorst[seg]
		if !ok {
			t.Errorf("worst list lost %q", seg)
			continue
		}
		worst = max(worst, compareGoldenLine(t, w, g))
	}
	return worst
}

// splitGolden separates a golden dump into its ordered lines and its
// worst-list entries keyed by "seg <id>".
func splitGolden(text string) (lines []string, worst map[string]string) {
	worst = map[string]string{}
	inWorst := false
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case line == "worst:":
			inWorst = true
		case strings.HasPrefix(line, "segments "):
			inWorst = false
		case inWorst:
			f := strings.Fields(line)
			worst[f[0]+" "+f[1]] = line
			continue
		}
		lines = append(lines, line)
	}
	return lines, worst
}

// compareGoldenLine compares two dump lines field by field: values that
// parse as integers (counts, ids, iteration numbers) and non-numeric
// values (codes, flags, nodes) must be identical; other floats must
// agree to goldenRelTol. It returns the largest relative difference.
func compareGoldenLine(t *testing.T, want, got string) float64 {
	t.Helper()
	wf, gf := strings.Fields(want), strings.Fields(got)
	if len(wf) != len(gf) {
		t.Errorf("line shape changed:\n got %s\nwant %s", got, want)
		return 0
	}
	worst := 0.0
	for i := range wf {
		wk, wv := goldenField(wf[i])
		gk, gv := goldenField(gf[i])
		if wk != gk {
			t.Errorf("field %q became %q:\n got %s\nwant %s", wk, gk, got, want)
			continue
		}
		_, wIntErr := strconv.Atoi(wv)
		wx, wErr := strconv.ParseFloat(wv, 64)
		gx, gErr := strconv.ParseFloat(gv, 64)
		if wIntErr == nil || wErr != nil || gErr != nil {
			if wv != gv {
				t.Errorf("field %q = %s, want %s exactly:\n got %s\nwant %s", wk, gv, wv, got, want)
			}
			continue
		}
		if wx == gx {
			continue
		}
		rel := math.Abs(gx-wx) / max(math.Abs(wx), math.Abs(gx))
		worst = max(worst, rel)
		if rel > goldenRelTol {
			t.Errorf("field %q = %s, want %s (relative difference %.3g > %g):\n got %s\nwant %s",
				wk, gv, wv, rel, goldenRelTol, got, want)
		}
	}
	return worst
}

// goldenField splits "key=value"; a bare field is a value with no key.
func goldenField(f string) (key, value string) {
	if k, v, ok := strings.Cut(f, "="); ok {
		return k, v
	}
	return "", f
}
