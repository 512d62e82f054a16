package ntrs

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dsmtherm/internal/core"
	"dsmtherm/internal/material"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/thermal"
)

func TestBothNodesValidate(t *testing.T) {
	for _, tech := range Nodes() {
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: %v", tech.Name, err)
		}
	}
}

func TestNodeShapes(t *testing.T) {
	n250, n100 := N250(), N100()
	if n250.NumLevels() != 6 {
		t.Errorf("0.25 µm node has %d levels, want 6", n250.NumLevels())
	}
	if n100.NumLevels() != 8 {
		t.Errorf("0.1 µm node has %d levels, want 8 (the paper's eight-level system)", n100.NumLevels())
	}
	// Scaling: the finer node has smaller feature, lower Vdd, faster clock.
	if n100.Feature >= n250.Feature || n100.Vdd >= n250.Vdd || n100.Clock <= n250.Clock {
		t.Error("0.1 µm node must be scaled relative to 0.25 µm")
	}
	// Minimum pitch tracks the feature size.
	if n100.Layers[0].Pitch >= n250.Layers[0].Pitch {
		t.Error("M1 pitch must shrink with scaling")
	}
}

func TestTable8SheetResistanceFragment(t *testing.T) {
	// The one legible Table 8 fragment: sheet resistance 0.085 Ω/□.
	// With barrier-free bulk Cu at Tref (1.67 µΩ·cm, the Fig. 2 model)
	// the reconstructed 0.26 µm M1 gives 0.064 Ω/□; a realistic
	// barrier-degraded ρ ≈ 2.2 µΩ·cm gives exactly 0.085. Require the
	// same order of magnitude from the model.
	n100 := N100()
	rs := n100.Metal.SheetResistance(n100.Layers[0].Thick, material.Tref100C)
	if rs < 0.05 || rs > 0.10 {
		t.Errorf("M1 sheet resistance = %v Ω/□, want 0.05–0.10 (fragment: 0.085)", rs)
	}
}

func TestLayerAccess(t *testing.T) {
	tech := N250()
	l, err := tech.Layer(5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Class != Global || l.Level != 5 {
		t.Errorf("M5 = %+v", l)
	}
	if _, err := tech.Layer(0); err == nil {
		t.Error("level 0 must fail")
	}
	if _, err := tech.Layer(7); err == nil {
		t.Error("level 7 must fail on a 6-level node")
	}
	if l.Space() <= 0 {
		t.Error("positive spacing required")
	}
}

func TestTopLevels(t *testing.T) {
	n100 := N100()
	top := n100.TopLevels(4)
	want := []int{5, 6, 7, 8}
	if len(top) != 4 {
		t.Fatalf("top levels: %v", top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopLevels(4) = %v, want %v", top, want)
		}
	}
	if got := n100.TopLevels(99); len(got) != 8 {
		t.Error("TopLevels must clamp to the level count")
	}
}

func TestStackBelowGrowsWithLevel(t *testing.T) {
	tech := N100()
	prev := 0.0
	for lvl := 1; lvl <= 8; lvl++ {
		s, err := tech.StackBelow(lvl)
		if err != nil {
			t.Fatal(err)
		}
		b := s.TotalThickness()
		if b <= prev {
			t.Errorf("stack under M%d (%v) not thicker than under M%d", lvl, b, lvl-1)
		}
		prev = b
	}
}

func TestStackBelowComposition(t *testing.T) {
	// Under M1 there is exactly one layer (its own ILD); under M2 there
	// are three (ILD1, gap1, ILD2).
	tech := N250()
	s1, _ := tech.StackBelow(1)
	if len(s1) != 1 {
		t.Errorf("stack under M1 has %d layers, want 1", len(s1))
	}
	s2, _ := tech.StackBelow(2)
	if len(s2) != 3 {
		t.Errorf("stack under M2 has %d layers, want 3", len(s2))
	}
	if _, err := tech.StackBelow(0); err == nil {
		t.Error("invalid level must fail")
	}
}

func TestGapFillSwapAffectsStack(t *testing.T) {
	// Swapping the gap fill to HSQ must raise the series thermal term of
	// upper-level stacks (Eq. 15) but leave the ILD layers alone.
	ox := N250()
	hsq := ox.WithGapFill(&material.HSQ)
	so, _ := ox.StackBelow(5)
	sh, _ := hsq.StackBelow(5)
	if sh.SeriesResistanceTerm() <= so.SeriesResistanceTerm() {
		t.Error("HSQ gap fill must increase the series thermal resistance")
	}
	if math.Abs(sh.TotalThickness()-so.TotalThickness()) > 1e-15 {
		t.Error("gap-fill swap must not change geometry")
	}
	// The original is untouched (deep copy).
	if ox.Gap.Name != "Oxide" {
		t.Error("WithGapFill mutated the receiver")
	}
	if !strings.Contains(hsq.Name, "HSQ") {
		t.Error("derived technology name should mention the dielectric")
	}
}

func TestWithMetal(t *testing.T) {
	cu := N250()
	al := cu.WithMetal(&material.AlCu)
	if al.Metal.Name != "AlCu" || cu.Metal.Name != "Cu" {
		t.Error("WithMetal copy semantics broken")
	}
	if err := al.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLineConstruction(t *testing.T) {
	tech := N250()
	ln, err := tech.Line(5, phys.Microns(1000))
	if err != nil {
		t.Fatal(err)
	}
	if ln.Level != 5 || ln.Width != tech.Layers[4].Width {
		t.Errorf("line = %+v", ln)
	}
	if _, err := tech.Line(9, 1e-3); err == nil {
		t.Error("invalid level must fail")
	}
}

func TestReproducesTable2LegibleEntry(t *testing.T) {
	// The one fully legible Table 2 signal-line entry: 0.25 µm node, M5,
	// oxide, r = 0.1, j0 = 0.6 MA/cm² → jpeak = 5.94 MA/cm². The
	// reconstructed technology file should land within ~15 % of it.
	tech := N250()
	ln, err := tech.Line(5, phys.Microns(2000))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(core.Problem{
		Line:  ln,
		Model: thermal.Quasi2D(),
		R:     0.1,
		J0:    phys.MAPerCm2(0.6),
	})
	if err != nil {
		t.Fatal(err)
	}
	jp := phys.ToMAPerCm2(sol.Jpeak)
	if jp < 5.0 || jp > 6.9 {
		t.Errorf("M5 oxide signal jpeak = %v MA/cm², want ≈5.94 (Table 2)", jp)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*Technology){
		func(t *Technology) { t.Vdd = 0 },
		func(t *Technology) { t.Metal = nil },
		func(t *Technology) { t.Layers = nil },
		func(t *Technology) { t.Layers[0].Pitch = t.Layers[0].Width / 2 },
		func(t *Technology) { t.Layers[0].Thick = t.Layers[0].Width * 10 },
		func(t *Technology) { t.Layers[2].Level = 9 },
		func(t *Technology) { t.Device.Isat = 0 },
		func(t *Technology) { t.Layers[5].Class = Local }, // tier decreases
	}
	for i, mutate := range mutations {
		tech := N250()
		mutate(tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestDescribe(t *testing.T) {
	d := N100().Describe()
	for _, want := range []string{"NTRS-0.10um", "M1", "M8", "global", "Vdd=1.20"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestSheetResistanceAPI(t *testing.T) {
	tech := N250()
	rs, err := tech.SheetResistance(5, material.Tref100C)
	if err != nil {
		t.Fatal(err)
	}
	want := tech.Metal.Resistivity(material.Tref100C) / tech.Layers[4].Thick
	if math.Abs(rs-want) > 1e-12 {
		t.Error("sheet resistance mismatch")
	}
	if _, err := tech.SheetResistance(0, 300); err == nil {
		t.Error("invalid level must fail")
	}
}

// TestSelectVocabulary pins the one selector vocabulary: every accepted
// node spelling builds its node, gap-fill and metal swaps match
// WithGapFill and WithMetal, Levels agrees with NumLevels, and an
// unknown node, gap-fill or metal gives the error text callers quote.
func TestSelectVocabulary(t *testing.T) {
	hsq, err := material.DielectricByName("HSQ")
	if err != nil {
		t.Fatal(err)
	}
	alcu, err := material.MetalByName("AlCu")
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() *Technology{
		"": N250, "0.25": N250, "250": N250,
		"0.10": N100, "0.1": N100, "100": N100,
	} {
		node := build()
		for _, c := range []struct {
			gap, metal string
			want       *Technology
		}{
			{"", "", node},
			{"HSQ", "", node.WithGapFill(hsq)},
			{"", "AlCu", node.WithMetal(alcu)},
			{"HSQ", "AlCu", node.WithGapFill(hsq).WithMetal(alcu)},
		} {
			got, err := Select(name, c.gap, c.metal)
			if err != nil {
				t.Errorf("Select(%q, %q, %q): %v", name, c.gap, c.metal, err)
			} else if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Select(%q, %q, %q) = %s, want %s", name, c.gap, c.metal, got.Name, c.want.Name)
			}
		}
		if levels, ok := Levels(name); !ok || levels != node.NumLevels() {
			t.Errorf("Levels(%q) = %d, %v; want %d, true", name, levels, ok, node.NumLevels())
		}
	}
	for _, c := range []struct{ node, gap, metal, want string }{
		{"0.5", "", "", `unknown node "0.5" (want 0.25 or 0.10)`},
		{"n250", "", "", `unknown node "n250" (want 0.25 or 0.10)`},
		{"0.25", "aerogel", "", `material: unknown dielectric "aerogel"`},
		{"0.10", "", "Ag", `material: unknown metal "Ag"`},
	} {
		if _, err := Select(c.node, c.gap, c.metal); err == nil || err.Error() != c.want {
			t.Errorf("Select(%q, %q, %q) error = %v, want %q", c.node, c.gap, c.metal, err, c.want)
		}
	}
	if _, ok := Levels("0.5"); ok {
		t.Error(`Levels("0.5") accepted an unknown node`)
	}
}
