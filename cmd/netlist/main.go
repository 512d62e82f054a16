// Command netlist runs the Fig. 7 pipeline for one buffered interconnect
// segment: extract parasitics, optimize the repeater (Eqs. 16–17), build
// and simulate the transient netlist, and print the line-current waveform
// with its §4 metrics (jpeak, jrms, effective duty cycle, relative slew).
package main

import (
	"flag"
	"fmt"
	"os"

	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/repeater"
)

func main() {
	node := flag.String("node", ntrs.DefaultNode, "technology node (0.25 or 0.10)")
	level := flag.Int("level", 0, "metallization level (0 = top)")
	gap := flag.String("gap", "", "gap-fill dielectric (oxide, HSQ, polyimide, k2.0)")
	samples := flag.Int("samples", 48, "waveform samples to print")
	flag.Parse()

	if err := run(*node, *level, *gap, *samples); err != nil {
		fmt.Fprintln(os.Stderr, "netlist:", err)
		os.Exit(1)
	}
}

func run(node string, level int, gap string, samples int) error {
	tech, err := ntrs.Select(node, gap, "")
	if err != nil {
		return err
	}
	if level == 0 {
		level = tech.NumLevels()
	}
	m, err := repeater.Simulate(tech, level, repeater.SimOpts{})
	if err != nil {
		return err
	}
	fmt.Printf("%s M%d: r=%.4g Ohm/um  c=%.4g fF/um\n",
		tech.Name, level, m.R*phys.Micron, phys.ToFFPerMicron(m.C))
	fmt.Printf("optimal: lopt=%.3f mm  sopt=%.0f  closed-form delay=%.1f ps  simulated=%.1f ps\n",
		m.Lopt*1e3, m.Sopt, m.SegmentDelay*1e12, m.DelayMeasured*1e12)
	fmt.Printf("currents: Ipeak=%.2f mA  jpeak=%.3g MA/cm²  jrms=%.3g MA/cm²\n",
		m.Ipeak*1e3, phys.ToMAPerCm2(m.Jpeak), phys.ToMAPerCm2(m.Jrms))
	fmt.Printf("effective duty cycle reff=%.3f (paper: 0.12±0.01)  relative slew=%.3f\n\n",
		m.Reff, m.RelativeSlew)

	w, err := m.Wave.Resample(samples)
	if err != nil {
		return err
	}
	ts, vs := w.Samples()
	period := w.Period()
	peak := w.Peak()
	fmt.Println("t/T      I[mA]     waveform")
	for i := range ts {
		bar := int(40 * (vs[i] + peak) / (2 * peak))
		if bar < 0 {
			bar = 0
		}
		if bar > 79 {
			bar = 79
		}
		fmt.Printf("%-7.3f %+9.3f  %*s\n", ts[i]/period, vs[i]*1e3, bar+1, "*")
	}
	return nil
}
