package material

import (
	"math"
	"testing"
	"testing/quick"

	"dsmtherm/internal/phys"
)

func TestCuResistivityMatchesFig2Caption(t *testing.T) {
	// Fig. 2 caption: ρ(Tm) = 1.67e-6 Ω·cm [1 + 6.8e-3 (Tm − Tref)],
	// Tref = 100 °C.
	if got := Cu.Resistivity(phys.CToK(100)); math.Abs(got-1.67e-8) > 1e-12 {
		t.Errorf("ρ(100°C) = %v, want 1.67e-8", got)
	}
	want := 1.67e-8 * (1 + 6.8e-3*50)
	if got := Cu.Resistivity(phys.CToK(150)); math.Abs(got-want) > 1e-12 {
		t.Errorf("ρ(150°C) = %v, want %v", got, want)
	}
}

func TestResistivityMonotoneInT(t *testing.T) {
	metals := []*Metal{&Cu, &AlCu, &W}
	for _, m := range metals {
		prev := m.Resistivity(250)
		for tk := 260.0; tk < 1300; tk += 10 {
			cur := m.Resistivity(tk)
			if cur < prev {
				t.Errorf("%s: ρ not monotone at %v K", m.Name, tk)
			}
			prev = cur
		}
	}
}

func TestResistivityClampPositive(t *testing.T) {
	prop := func(tRaw float64) bool {
		tk := math.Abs(math.Mod(tRaw, 5000))
		return Cu.Resistivity(tk) > 0 && AlCu.Resistivity(tk) > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAlCuVsCu(t *testing.T) {
	// AlCu is more resistive and has lower EM activation energy than Cu
	// — the two facts behind the paper's Cu-vs-AlCu comparison (Table 4).
	if AlCu.Resistivity(Tref100C) <= Cu.Resistivity(Tref100C) {
		t.Error("AlCu should be more resistive than Cu")
	}
	if AlCu.EMActivation >= Cu.EMActivation {
		t.Error("AlCu should have lower EM activation energy than Cu")
	}
	if AlCu.MeltingPoint >= Cu.MeltingPoint {
		t.Error("AlCu melts below Cu")
	}
}

func TestSheetResistance(t *testing.T) {
	// 0.5 µm Cu at 100 °C: 1.67e-8 / 0.5e-6 = 0.0334 Ω/□.
	got := Cu.SheetResistance(phys.Microns(0.5), Tref100C)
	if math.Abs(got-0.0334) > 1e-6 {
		t.Errorf("sheet R = %v, want 0.0334", got)
	}
}

func TestTable1ThermalConductivities(t *testing.T) {
	// Table 1 verbatim.
	if Oxide.ThermalCond != 1.15 {
		t.Errorf("oxide K = %v, want 1.15", Oxide.ThermalCond)
	}
	if HSQ.ThermalCond != 0.6 {
		t.Errorf("HSQ K = %v, want 0.6", HSQ.ThermalCond)
	}
	if Polyimide.ThermalCond != 0.25 {
		t.Errorf("polyimide K = %v, want 0.25", Polyimide.ThermalCond)
	}
	if !(Oxide.ThermalCond > HSQ.ThermalCond && HSQ.ThermalCond > Polyimide.ThermalCond) {
		t.Error("Table 1 ordering violated")
	}
}

func TestIsLowK(t *testing.T) {
	if Oxide.IsLowK() {
		t.Error("oxide is not low-k")
	}
	for _, d := range []*Dielectric{&HSQ, &Polyimide, &SiOF} {
		if !d.IsLowK() {
			t.Errorf("%s should be low-k", d.Name)
		}
	}
}

func TestLowKThermalPenalty(t *testing.T) {
	// The paper's central low-k caveat: every low-k candidate conducts
	// heat worse than oxide.
	for _, d := range PaperDielectrics()[1:] {
		if d.ThermalCond >= Oxide.ThermalCond {
			t.Errorf("%s should conduct heat worse than oxide", d.Name)
		}
	}
}

func TestMetalByName(t *testing.T) {
	for _, name := range []string{"Cu", "cu", "AlCu", "alcu", "Al-Cu", "W", "w"} {
		if _, err := MetalByName(name); err != nil {
			t.Errorf("MetalByName(%q): %v", name, err)
		}
	}
	if _, err := MetalByName("unobtainium"); err == nil {
		t.Error("expected error for unknown metal")
	}
	// Returned values are copies: mutating one must not corrupt the DB.
	m, _ := MetalByName("Cu")
	m.Rho0 = 1
	if Cu.Rho0 == 1 {
		t.Error("MetalByName aliases the package value")
	}
}

func TestDielectricByName(t *testing.T) {
	for _, name := range []string{"oxide", "SiO2", "PETEOS", "HSQ", "polyimide", "SiOF", "Si3N4", "Si", "air"} {
		if _, err := DielectricByName(name); err != nil {
			t.Errorf("DielectricByName(%q): %v", name, err)
		}
	}
	if _, err := DielectricByName("vacuum"); err == nil {
		t.Error("expected error for unknown dielectric")
	}
	d, _ := DielectricByName("oxide")
	d.ThermalCond = -1
	if Oxide.ThermalCond == -1 {
		t.Error("DielectricByName aliases the package value")
	}
}

// TestDielectricByNameAllocs pins a lookup to the one allocation of its
// returned copy, as MetalByName: the alias table is built once.
func TestDielectricByNameAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { _, _ = DielectricByName("HSQ") }); got != 1 {
		t.Errorf("DielectricByName allocates %v times, want 1", got)
	}
}

func TestVolumetricHeatCapacity(t *testing.T) {
	// Cu: 8960·385 ≈ 3.45e6 J/(m³K) — the value that sets ESD adiabatic
	// heating rates.
	got := Cu.VolumetricHeatCapacity()
	if math.Abs(got-3.4496e6) > 1e2 {
		t.Errorf("Cu ρcp = %v", got)
	}
	if Oxide.VolumetricHeatCapacity() <= 0 {
		t.Error("oxide ρcp must be positive")
	}
}

func TestESDCriticalDensities(t *testing.T) {
	// §6: AlCu opens at ≈ 60 MA/cm².
	if got := phys.ToMAPerCm2(AlCu.CriticalESD); got != 60 {
		t.Errorf("AlCu ESD critical = %v MA/cm², want 60", got)
	}
	if Cu.CriticalESD <= AlCu.CriticalESD {
		t.Error("Cu should tolerate more ESD current than AlCu")
	}
}

func TestStringers(t *testing.T) {
	if Cu.String() != "Cu" || Oxide.String() != "Oxide" {
		t.Error("String()")
	}
}

func TestPaperDielectricsOrder(t *testing.T) {
	ds := PaperDielectrics()
	if len(ds) != 3 || ds[0].Name != "Oxide" || ds[1].Name != "HSQ" || ds[2].Name != "Polyimide" {
		t.Errorf("PaperDielectrics order: %v", ds)
	}
}
