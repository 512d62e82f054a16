package material

import "fmt"

// Dielectric describes an inter- or intra-level insulating material.
type Dielectric struct {
	Name string

	// ThermalCond is the thermal conductivity normal to the film plane,
	// W/(m·K). Table 1 of the paper: PETEOS oxide 1.15 (measured, Jin et
	// al. 1996), HSQ 0.6 and polyimide 0.25 (Goodson, private
	// communication).
	ThermalCond float64

	// RelPermittivity is the relative dielectric constant k.
	RelPermittivity float64

	Density      float64 // kg/m³
	SpecificHeat float64 // J/(kg·K)
}

// VolumetricHeatCapacity returns ρ·cp in J/(m³·K).
func (d *Dielectric) VolumetricHeatCapacity() float64 {
	return d.Density * d.SpecificHeat
}

// String implements fmt.Stringer.
func (d *Dielectric) String() string { return d.Name }

// IsLowK reports whether the material is a low-k dielectric in the paper's
// sense (relative permittivity below that of PETEOS oxide).
func (d *Dielectric) IsLowK() bool { return d.RelPermittivity < Oxide.RelPermittivity }

// Standard dielectrics. Thermal conductivities of the three paper
// dielectrics are Table 1 verbatim.
var (
	// Oxide is PETEOS SiO2, the standard inter/intra-level dielectric.
	Oxide = Dielectric{
		Name:            "Oxide",
		ThermalCond:     1.15,
		RelPermittivity: 4.0,
		Density:         2200,
		SpecificHeat:    730,
	}

	// HSQ (hydrogen silsesquioxane) is the low-k gap-fill material of the
	// paper's measured 0.25 µm process (Fig. 5).
	HSQ = Dielectric{
		Name:            "HSQ",
		ThermalCond:     0.6,
		RelPermittivity: 2.9,
		Density:         1400,
		SpecificHeat:    800,
	}

	// Polyimide is the aggressive organic low-k candidate of Tables 2–4.
	Polyimide = Dielectric{
		Name:            "Polyimide",
		ThermalCond:     0.25,
		RelPermittivity: 2.7,
		Density:         1420,
		SpecificHeat:    1090,
	}

	// SiOF (fluorinated oxide, k ≈ 3.5) appears in the paper's citation
	// [12] as the first-generation low-k ILD.
	SiOF = Dielectric{
		Name:            "SiOF",
		ThermalCond:     1.0,
		RelPermittivity: 3.5,
		Density:         2150,
		SpecificHeat:    745,
	}

	// Nitride (Si3N4) caps and etch stops; thermally much better than
	// oxide but high-k.
	Nitride = Dielectric{
		Name:            "Si3N4",
		ThermalCond:     18.5,
		RelPermittivity: 7.5,
		Density:         3100,
		SpecificHeat:    700,
	}

	// Silicon is the substrate; it terminates every thermal stack.
	Silicon = Dielectric{
		Name:            "Si",
		ThermalCond:     148,
		RelPermittivity: 11.7,
		Density:         2330,
		SpecificHeat:    700,
	}

	// LowK2 is the k = 2.0 insulator of the paper's Table 6 (the 0.1 µm
	// node's delay simulations assume a relative permittivity of 2.0 —
	// an aerogel/porous-polymer-class material with correspondingly poor
	// thermal conduction).
	LowK2 = Dielectric{
		Name:            "LowK2.0",
		ThermalCond:     0.3,
		RelPermittivity: 2.0,
		Density:         1100,
		SpecificHeat:    1000,
	}

	// Air for unfilled gaps (k ≈ 1); the worst-case thermal insulator.
	Air = Dielectric{
		Name:            "Air",
		ThermalCond:     0.026,
		RelPermittivity: 1.0,
		Density:         1.2,
		SpecificHeat:    1005,
	}
)

// PaperDielectrics returns the three intra-level dielectrics analyzed by
// Tables 2–4, in the paper's column order.
func PaperDielectrics() []*Dielectric {
	o, h, p := Oxide, HSQ, Polyimide
	return []*Dielectric{&o, &h, &p}
}

// dielectrics maps every name DielectricByName accepts to its material.
var dielectrics = map[string]*Dielectric{
	"oxide": &Oxide, "Oxide": &Oxide, "SiO2": &Oxide, "PETEOS": &Oxide,
	"hsq": &HSQ, "HSQ": &HSQ,
	"polyimide": &Polyimide, "Polyimide": &Polyimide,
	"siof": &SiOF, "SiOF": &SiOF,
	"lowk2": &LowK2, "LowK2.0": &LowK2, "k2.0": &LowK2,
	"nitride": &Nitride, "Si3N4": &Nitride,
	"si": &Silicon, "Si": &Silicon,
	"air": &Air, "Air": &Air,
}

// DielectricByName returns a copy of the standard dielectric with the
// given name.
func DielectricByName(name string) (*Dielectric, error) {
	if d, ok := dielectrics[name]; ok {
		c := *d
		return &c, nil
	}
	return nil, fmt.Errorf("material: unknown dielectric %q", name)
}
