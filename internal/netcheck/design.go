package netcheck

import (
	"fmt"
	"io"

	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/waveform"
)

// Design-file loading: a small JSON schema so signoff runs can be driven
// from the command line (dsmtherm netcheck -file design.json) without
// writing Go. Units in the file are designer-friendly: lengths in µm,
// current densities in MA/cm², currents in A.

// WaveformSpec selects a segment's current waveform.
type WaveformSpec struct {
	// Kind is "dc", "unipolar", or "bipolar".
	Kind string `json:"kind"`
	// Amps is the DC current (kind "dc"), A.
	Amps float64 `json:"amps,omitempty"`
	// PeakMA is the peak current density (pulsed kinds), MA/cm²,
	// referred to the segment's own cross-section.
	PeakMA float64 `json:"peakMA,omitempty"`
	// DutyCycle applies to the pulsed kinds.
	DutyCycle float64 `json:"dutyCycle,omitempty"`
}

// SegmentSpec is one routed segment in the design file.
type SegmentSpec struct {
	Net           string       `json:"net"`
	Name          string       `json:"name"`
	Level         int          `json:"level"`
	WidthMultiple float64      `json:"widthMultiple"`
	LengthUm      float64      `json:"lengthUm"`
	Waveform      WaveformSpec `json:"waveform"`
}

// DesignFile is the top-level schema.
type DesignFile struct {
	// Node selects the technology: "0.25" (the default) or "0.10".
	Node string `json:"node"`
	// J0MA overrides the EM budget, MA/cm² (default 1.8).
	J0MA float64 `json:"j0MA,omitempty"`
	// Gap optionally swaps the gap-fill dielectric by name.
	Gap string `json:"gap,omitempty"`
	// Metal optionally swaps the interconnect metal by name.
	Metal    string        `json:"metal,omitempty"`
	Segments []SegmentSpec `json:"segments"`
}

// Tech materializes the technology the design file selects (node plus
// any gap-fill / metal substitution).
func (df *DesignFile) Tech() (*ntrs.Technology, error) {
	tech, err := ntrs.Select(df.Node, df.Gap, df.Metal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return tech, nil
}

// Spec returns the rule-deck spec the design file implies. It is a pure
// function of the file, so services can key deck caches on
// (Node, Gap, Metal, J0MA) and reuse decks across requests.
func (df *DesignFile) Spec() rules.Spec {
	j0 := df.J0MA
	if j0 == 0 {
		j0 = 1.8
	}
	return rules.Spec{J0: phys.MAPerCm2(j0)}
}

// MaterializeSegments builds the design's segments against tech (which
// must be the technology the deck was generated for).
func (df *DesignFile) MaterializeSegments(tech *ntrs.Technology) ([]*Segment, error) {
	var segs []*Segment
	for i, ss := range df.Segments {
		seg, err := materializeSegment(tech, ss)
		if err != nil {
			return nil, fmt.Errorf("netcheck: segment %d (%s/%s): %w", i, ss.Net, ss.Name, err)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// LoadDesign parses a design file and materializes the deck and segments
// it describes.
func LoadDesign(r io.Reader) (*rules.Deck, []*Segment, error) {
	df, err := ParseDesign(r)
	if err != nil {
		return nil, nil, err
	}
	tech, err := df.Tech()
	if err != nil {
		return nil, nil, err
	}
	deck, err := rules.Generate(tech, df.Spec())
	if err != nil {
		return nil, nil, err
	}
	segs, err := df.MaterializeSegments(tech)
	if err != nil {
		return nil, nil, err
	}
	return deck, segs, nil
}

func materializeSegment(tech *ntrs.Technology, ss SegmentSpec) (*Segment, error) {
	layer, err := tech.Layer(ss.Level)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if ss.WidthMultiple == 0 {
		ss.WidthMultiple = 1
	}
	area := layer.Width * ss.WidthMultiple * layer.Thick
	var w waveform.Waveform
	switch ss.Waveform.Kind {
	case "dc":
		w = waveform.DC{Value: ss.Waveform.Amps}
	case "unipolar":
		u, err := waveform.NewUnipolarPulse(
			phys.MAPerCm2(ss.Waveform.PeakMA)*area, 1/tech.Clock, ss.Waveform.DutyCycle)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
		}
		w = u
	case "bipolar":
		b, err := waveform.NewBipolarPulse(
			phys.MAPerCm2(ss.Waveform.PeakMA)*area, 1/tech.Clock, ss.Waveform.DutyCycle)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
		}
		w = b
	default:
		return nil, fmt.Errorf("%w: waveform kind %q", ErrInvalid, ss.Waveform.Kind)
	}
	return &Segment{
		Net:           ss.Net,
		Name:          ss.Name,
		Level:         ss.Level,
		WidthMultiple: ss.WidthMultiple,
		Length:        phys.Microns(ss.LengthUm),
		Current:       w,
	}, nil
}
