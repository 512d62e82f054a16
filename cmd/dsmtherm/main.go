// Command dsmtherm is the interactive CLI over the dsmtherm library:
// self-consistent interconnect design rules (the paper's Eq. 13),
// duty-cycle sweeps, repeater optimization, ESD robustness checks,
// cross-section thermal maps, and technology-file inspection.
//
// Subcommands:
//
//	dsmtherm rules    -node 0.25 -level 5 -r 0.1 -j0 0.6 [-gap HSQ] [-metal AlCu] [-fdm]
//	dsmtherm sweep    -node 0.25 -level 5 -j0 0.6 [-points 13]
//	dsmtherm repeater -node 0.10 -level 8 [-gap k2.0]
//	dsmtherm esd      -metal AlCu -w 3 -t 0.6 -pulse 200e-9
//	dsmtherm thermalmap -levels 4 -lines 3 [-heat all|column|center]
//	dsmtherm deck     -node 0.25 [-j0 1.8] [-gap HSQ] [-esd-amps 1 -esd-ns 200]
//	dsmtherm netcheck -file design.json
//	dsmtherm tech     [-node 0.25]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dsmtherm/internal/core"
	"dsmtherm/internal/esd"
	"dsmtherm/internal/exp"
	"dsmtherm/internal/fdm"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/repeater"
	"dsmtherm/internal/rules"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "rules":
		err = cmdRules(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "repeater":
		err = cmdRepeater(os.Args[2:])
	case "esd":
		err = cmdESD(os.Args[2:])
	case "thermalmap":
		err = cmdThermalMap(os.Args[2:])
	case "deck":
		err = cmdDeck(os.Args[2:])
	case "netcheck":
		err = cmdNetcheck(os.Args[2:])
	case "tech":
		err = cmdTech(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dsmtherm: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmtherm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dsmtherm <rules|sweep|repeater|esd|thermalmap|deck|netcheck|tech> [flags]
run "dsmtherm <subcommand> -h" for per-command flags`)
}

// selectTech is ntrs.Select with this command's own n250 and n100
// spellings of the two nodes.
func selectTech(node, gap, metal string) (*ntrs.Technology, error) {
	switch node {
	case "n250":
		node = "0.25"
	case "n100":
		node = "0.10"
	}
	return ntrs.Select(node, gap, metal)
}

func cmdRules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	node := fs.String("node", ntrs.DefaultNode, "technology node (0.25 or 0.10)")
	level := fs.Int("level", 0, "metallization level (0 = all top levels)")
	r := fs.Float64("r", 0.1, "duty cycle")
	j0 := fs.Float64("j0", 0.6, "EM design-rule current density at Tref, MA/cm²")
	gap := fs.String("gap", "", "gap-fill dielectric (oxide, HSQ, polyimide, k2.0)")
	metal := fs.String("metal", "", "interconnect metal (Cu, AlCu)")
	useFDM := fs.Bool("fdm", false, "use the FDM-solved thermal impedance instead of the Weff model")
	fs.Parse(args)

	tech, err := selectTech(*node, *gap, *metal)
	if err != nil {
		return err
	}
	levels := exp.DesignRuleLevels(tech)
	if *level != 0 {
		levels = []int{*level}
	}
	fmt.Printf("%-5s %10s %10s %10s %10s %10s\n", "level", "Tm[degC]", "jpeak", "jrms", "javg", "naive j0/r")
	for _, lvl := range levels {
		var sol core.Solution
		if *useFDM {
			sol, err = exp.SolveRuleFDM(tech, lvl, *r, *j0)
		} else {
			sol, err = exp.SolveRule(tech, lvl, *r, *j0)
		}
		if err != nil {
			return err
		}
		fmt.Printf("M%-4d %10.1f %10.3g %10.3g %10.3g %10.3g\n",
			lvl, phys.KToC(sol.Tm), phys.ToMAPerCm2(sol.Jpeak),
			phys.ToMAPerCm2(sol.Jrms), phys.ToMAPerCm2(sol.Javg),
			phys.ToMAPerCm2(sol.EMOnlyJpeak))
	}
	fmt.Println("current densities in MA/cm²")
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	node := fs.String("node", ntrs.DefaultNode, "technology node")
	level := fs.Int("level", 5, "metallization level")
	j0 := fs.Float64("j0", 0.6, "EM design-rule current density, MA/cm²")
	points := fs.Int("points", 13, "sweep points across r = 1e-4 … 1")
	gap := fs.String("gap", "", "gap-fill dielectric")
	fs.Parse(args)

	tech, err := selectTech(*node, *gap, "")
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %12s %12s %10s\n", "r", "Tm[degC]", "jpeak", "jrms", "derating")
	for _, r := range core.Fig2DutyCycles(*points) {
		sol, err := exp.SolveRule(tech, *level, r, *j0)
		if err != nil {
			return err
		}
		fmt.Printf("%-10.3e %10.1f %12.3g %12.3g %10.3f\n",
			r, phys.KToC(sol.Tm), phys.ToMAPerCm2(sol.Jpeak),
			phys.ToMAPerCm2(sol.Jrms), sol.DeratingVsNaive)
	}
	return nil
}

func cmdRepeater(args []string) error {
	fs := flag.NewFlagSet("repeater", flag.ExitOnError)
	node := fs.String("node", ntrs.DefaultNode, "technology node")
	level := fs.Int("level", 0, "metallization level (0 = all routing tiers)")
	gap := fs.String("gap", "", "gap-fill dielectric")
	length := fs.Float64("len", 0, "override line length, mm (0 = lopt)")
	fs.Parse(args)

	tech, err := selectTech(*node, *gap, "")
	if err != nil {
		return err
	}
	levels := tech.TopLevels(4)
	if *level != 0 {
		levels = []int{*level}
	}
	fmt.Printf("%-5s %9s %6s %9s %9s %9s %7s %7s\n",
		"level", "lopt[mm]", "sopt", "delay[ps]", "jpk", "jrms", "reff", "slew")
	for _, lvl := range levels {
		m, err := repeater.Simulate(tech, lvl, repeater.SimOpts{LineLength: *length * 1e-3})
		if err != nil {
			return err
		}
		fmt.Printf("M%-4d %9.2f %6.0f %9.0f %9.3g %9.3g %7.3f %7.3f\n",
			lvl, m.Lopt*1e3, m.Sopt, m.DelayMeasured*1e12,
			phys.ToMAPerCm2(m.Jpeak), phys.ToMAPerCm2(m.Jrms), m.Reff, m.RelativeSlew)
	}
	fmt.Println("densities in MA/cm²; delay is simulated input-to-far-end 50%")
	return nil
}

func cmdESD(args []string) error {
	fs := flag.NewFlagSet("esd", flag.ExitOnError)
	metal := fs.String("metal", "AlCu", "interconnect metal")
	w := fs.Float64("w", 3, "line width, µm")
	th := fs.Float64("t", 0.6, "line thickness, µm")
	pulse := fs.Float64("pulse", 200e-9, "pulse width, s")
	j := fs.Float64("j", 0, "stress current density, MA/cm² (0 = report thresholds)")
	fs.Parse(args)

	m, err := material.MetalByName(*metal)
	if err != nil {
		return err
	}
	cfg := esd.Config{Metal: m, Width: phys.Microns(*w), Thick: phys.Microns(*th)}
	if *j > 0 {
		o, err := esd.Simulate(cfg, esd.Pulse{J: phys.MAPerCm2(*j), Duration: *pulse})
		if err != nil {
			return err
		}
		fmt.Printf("peak temp %.0f K, melt fraction %.2f, open=%v, latent damage=%v\n",
			o.PeakTemp, o.MeltFraction, o.Open, o.LatentDamage)
		return nil
	}
	onset, err := esd.MeltOnsetDensity(cfg, *pulse)
	if err != nil {
		return err
	}
	open, err := esd.CriticalDensity(cfg, *pulse)
	if err != nil {
		return err
	}
	adia, err := esd.AdiabaticCritical(cfg, *pulse)
	if err != nil {
		return err
	}
	fmt.Printf("%s %.1fx%.1f µm, %.0f ns pulse:\n", m.Name, *w, *th, *pulse*1e9)
	fmt.Printf("  melt onset (latent damage): %.3g MA/cm²\n", phys.ToMAPerCm2(onset))
	fmt.Printf("  open circuit:               %.3g MA/cm²\n", phys.ToMAPerCm2(open))
	fmt.Printf("  adiabatic estimate:         %.3g MA/cm²\n", phys.ToMAPerCm2(adia))
	return nil
}

func cmdThermalMap(args []string) error {
	fs := flag.NewFlagSet("thermalmap", flag.ExitOnError)
	levels := fs.Int("levels", 4, "metallization levels")
	lines := fs.Int("lines", 3, "lines per level")
	heat := fs.String("heat", "all", "heated set: all, column, center")
	jMA := fs.Float64("j", 2, "RMS current density in heated lines, MA/cm²")
	fs.Parse(args)

	ar, err := geometry.UniformArray(*levels, *lines, &material.Cu,
		phys.Microns(0.5), phys.Microns(0.6), phys.Microns(1.0), phys.Microns(0.8),
		&material.Oxide, &material.Oxide, phys.Microns(1.5))
	if err != nil {
		return err
	}
	s, err := fdm.NewSolver(ar, fdm.DefaultResolution(ar))
	if err != nil {
		return err
	}
	j := phys.MAPerCm2(*jMA)
	area := phys.Microns(0.5) * phys.Microns(0.6)
	p := j * j * material.Cu.Resistivity(material.Tref100C) * area
	powers := map[fdm.LineRef]float64{}
	center := *lines / 2
	switch *heat {
	case "all":
		for _, ref := range s.Lines() {
			powers[ref] = p
		}
	case "column":
		for lvl := 1; lvl <= *levels; lvl++ {
			powers[fdm.LineRef{Level: lvl, Index: center}] = p
		}
	case "center":
		powers[fdm.LineRef{Level: *levels, Index: center}] = p
	default:
		return fmt.Errorf("unknown heat set %q", *heat)
	}
	f, err := s.Solve(powers)
	if err != nil {
		return err
	}
	printASCIIMap(f)
	for lvl := 1; lvl <= *levels; lvl++ {
		dt, err := f.LineDeltaT(fdm.LineRef{Level: lvl, Index: center})
		if err != nil {
			return err
		}
		fmt.Printf("M%d center line: ΔT = %.3f K\n", lvl, dt)
	}
	return nil
}

// printASCIIMap renders the temperature field as a character raster
// (hotter = later in the ramp), bottom row = substrate.
func printASCIIMap(f *fdm.Field) {
	const ramp = " .:-=+*#%@"
	xs, ys := f.Grid()
	max := f.MaxDeltaT()
	if max == 0 {
		max = 1
	}
	const cols = 72
	rows := 24
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- {
		y := ys[0] + (ys[len(ys)-1]-ys[0])*(float64(r)+0.5)/float64(rows)
		for c := 0; c < cols; c++ {
			x := xs[0] + (xs[len(xs)-1]-xs[0])*(float64(c)+0.5)/float64(cols)
			v := f.At(x, y) / max
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
	fmt.Printf("max ΔT = %.3f K (substrate at bottom, '@' = hottest)\n", f.MaxDeltaT())
}

func cmdTech(args []string) error {
	fs := flag.NewFlagSet("tech", flag.ExitOnError)
	node := fs.String("node", "", "technology node (empty = both)")
	fs.Parse(args)
	techs := ntrs.Nodes()
	if *node != "" {
		t, err := selectTech(*node, "", "")
		if err != nil {
			return err
		}
		techs = []*ntrs.Technology{t}
	}
	for _, t := range techs {
		if err := t.Validate(); err != nil {
			return err
		}
		fmt.Print(t.Describe())
	}
	return nil
}

func cmdDeck(args []string) error {
	fs := flag.NewFlagSet("deck", flag.ExitOnError)
	node := fs.String("node", ntrs.DefaultNode, "technology node")
	j0 := fs.Float64("j0", 1.8, "EM design-rule current density, MA/cm²")
	gap := fs.String("gap", "", "gap-fill dielectric")
	metal := fs.String("metal", "", "interconnect metal")
	r := fs.Float64("r", 0.1, "signal-line effective duty cycle")
	esdAmps := fs.Float64("esd-amps", 1, "ESD pulse current, A (0 disables)")
	esdNs := fs.Float64("esd-ns", 200, "ESD pulse width, ns")
	fs.Parse(args)

	tech, err := selectTech(*node, *gap, *metal)
	if err != nil {
		return err
	}
	deck, err := rules.Generate(tech, rules.Spec{
		SignalDutyCycle: *r,
		J0:              phys.MAPerCm2(*j0),
		ESDPulseCurrent: *esdAmps,
		ESDPulseWidth:   *esdNs * 1e-9,
	})
	if err != nil {
		return err
	}
	fmt.Print(deck.Format())
	return nil
}

func cmdNetcheck(args []string) error {
	fs := flag.NewFlagSet("netcheck", flag.ExitOnError)
	file := fs.String("file", "", "design file (JSON; see internal/netcheck/design.go), or - for stdin")
	noStats := fs.Bool("nostats", false, "disable the EM-statistics derating")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("netcheck: -file is required")
	}
	var src *os.File
	if *file == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	deck, segs, err := netcheck.LoadDesign(src)
	if err != nil {
		return err
	}
	rep, err := netcheck.Check(netcheck.Config{Deck: deck, DisableStatistics: *noStats}, segs)
	if err != nil {
		return err
	}
	fmt.Print(rep.Format())
	if rep.Worst() == netcheck.Fail {
		os.Exit(1)
	}
	return nil
}
