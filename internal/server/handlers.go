package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"dsmtherm/internal/core"
	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
)

// decodeJSON strictly decodes a request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: body: %v", ErrBadRequest, err)
	}
	return nil
}

// RulesRequest asks for the self-consistent operating limits of one
// metallization level at one duty cycle. Units are designer-friendly:
// current densities MA/cm², lengths µm, temperatures °C.
//
// Numeric fields are pointers so that "absent" (defaulted) and "zero"
// (explicitly requested) are distinguishable: trefC:0 is a legal 0 °C
// corner and is honored, not silently replaced by the 100 °C default,
// while an explicit dutyCycle/j0MA/lengthUm of 0 is rejected by
// validation instead of being papered over.
type RulesRequest struct {
	Node      string   `json:"node"`                // "0.25" (default) or "0.10"
	Level     int      `json:"level"`               // metallization level, 1-based
	DutyCycle *float64 `json:"dutyCycle,omitempty"` // default 0.1 (§4 signal reff)
	J0MA      *float64 `json:"j0MA,omitempty"`      // EM budget at Tref; default 1.8
	Gap       string   `json:"gap,omitempty"`       // gap-fill dielectric swap
	Metal     string   `json:"metal,omitempty"`     // metal swap
	TrefC     *float64 `json:"trefC,omitempty"`     // default 100
	LengthUm  *float64 `json:"lengthUm,omitempty"`  // default 2000 (thermally long)
}

// orDefault resolves a pointer-or-presence field: absent → def,
// present → the client's value, zeros included.
func orDefault(p *float64, def float64) float64 {
	if p == nil {
		return def
	}
	return *p
}

// SolveJSON is one self-consistent solution in report units.
type SolveJSON struct {
	TmC           float64 `json:"tmC"`
	DeltaT        float64 `json:"deltaT"`
	JpeakMA       float64 `json:"jpeakMA"`
	JrmsMA        float64 `json:"jrmsMA"`
	JavgMA        float64 `json:"javgMA"`
	EMOnlyJpeakMA float64 `json:"emOnlyJpeakMA"`
	Derating      float64 `json:"derating"`
}

func solveJSON(sol core.Solution) SolveJSON {
	return SolveJSON{
		TmC:           phys.KToC(sol.Tm),
		DeltaT:        sol.DeltaT,
		JpeakMA:       phys.ToMAPerCm2(sol.Jpeak),
		JrmsMA:        phys.ToMAPerCm2(sol.Jrms),
		JavgMA:        phys.ToMAPerCm2(sol.Javg),
		EMOnlyJpeakMA: phys.ToMAPerCm2(sol.EMOnlyJpeak),
		Derating:      sol.DeratingVsNaive,
	}
}

// LevelRuleJSON is a deck row in report units.
type LevelRuleJSON struct {
	Level                int     `json:"level"`
	Class                string  `json:"class"`
	SignalJpeakMA        float64 `json:"signalJpeakMA"`
	SignalJrmsMA         float64 `json:"signalJrmsMA"`
	SignalJavgMA         float64 `json:"signalJavgMA"`
	SignalTmC            float64 `json:"signalTmC"`
	PowerJMA             float64 `json:"powerJMA"`
	PowerTmC             float64 `json:"powerTmC"`
	HealingLengthUm      float64 `json:"healingLengthUm"`
	ThermallyLongAboveUm float64 `json:"thermallyLongAboveUm"`
	BlechImmortalBelowUm float64 `json:"blechImmortalBelowUm,omitempty"`
	ESDWidthNoDamageUm   float64 `json:"esdWidthNoDamageUm,omitempty"`
	ESDWidthNoOpenUm     float64 `json:"esdWidthNoOpenUm,omitempty"`
}

func levelRuleJSON(r rules.LevelRule) LevelRuleJSON {
	return LevelRuleJSON{
		Level:                r.Level,
		Class:                r.Class.String(),
		SignalJpeakMA:        phys.ToMAPerCm2(r.SignalJpeak),
		SignalJrmsMA:         phys.ToMAPerCm2(r.SignalJrms),
		SignalJavgMA:         phys.ToMAPerCm2(r.SignalJavg),
		SignalTmC:            phys.KToC(r.SignalTm),
		PowerJMA:             phys.ToMAPerCm2(r.PowerJ),
		PowerTmC:             phys.KToC(r.PowerTm),
		HealingLengthUm:      phys.ToMicrons(r.HealingLength),
		ThermallyLongAboveUm: phys.ToMicrons(r.ThermallyLongAbove),
		BlechImmortalBelowUm: phys.ToMicrons(r.BlechImmortalBelow),
		ESDWidthNoDamageUm:   phys.ToMicrons(r.ESDWidthNoDamage),
		ESDWidthNoOpenUm:     phys.ToMicrons(r.ESDWidthNoOpen),
	}
}

// RulesResponse carries the solve at the requested duty cycle plus the
// standard deck row for the level.
type RulesResponse struct {
	Node      string        `json:"node"`
	Level     int           `json:"level"`
	DutyCycle float64       `json:"dutyCycle"`
	J0MA      float64       `json:"j0MA"`
	Solve     SolveJSON     `json:"solve"`
	Rule      LevelRuleJSON `json:"rule"`
	// Cached reports whether the solve was answered from the cache.
	Cached bool `json:"cached"`
	// Coalesced reports whether the solve or the deck row was answered
	// by waiting on another request's in-flight computation.
	Coalesced bool `json:"coalesced"`
	// Stale reports degraded-mode serving: the solve or the deck row was
	// a cache hit older than the freshness horizon, served while the
	// circuit breaker held the solver path open.
	Stale bool `json:"stale,omitempty"`
}

// rulesParams is one rules query with all defaults resolved.
type rulesParams struct {
	Node, Gap, Metal string
	Level            int
	DutyCycle        float64
	J0MA             float64
	TrefC            float64
	LengthUm         float64
}

// params applies the pointer-or-presence defaulting.
func (req *RulesRequest) params() rulesParams {
	node := req.Node
	if node == "" {
		node = "0.25"
	}
	return rulesParams{
		Node: node, Gap: req.Gap, Metal: req.Metal, Level: req.Level,
		DutyCycle: orDefault(req.DutyCycle, 0.1),
		J0MA:      orDefault(req.J0MA, 1.8),
		TrefC:     orDefault(req.TrefC, 100),
		LengthUm:  orDefault(req.LengthUm, 2000),
	}
}

// rulesWork is one validated rules query, ready to solve inside a pool
// slot. prepareRules does everything cheap (validation, canonical keys)
// so /v1/batch can deduplicate entries before any solver time is spent.
// It builds no technology: the solve and the deck row build theirs only
// on a cache miss.
type rulesWork struct {
	p        rulesParams
	spec     rules.Spec
	solveKey string
	ruleKey  string
}

func (s *Server) prepareRules(p rulesParams) (*rulesWork, error) {
	if !p.lineValid() {
		// Only a query tech.Line may reject builds its technology here,
		// so the 400 carries tech.Line's own message.
		if _, _, err := p.line(); err != nil {
			return nil, err
		}
	}
	spec := rules.Spec{J0: phys.MAPerCm2(p.J0MA), Tref: phys.CToK(p.TrefC)}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &rulesWork{
		p: p, spec: spec,
		solveKey: solveKey(p.Node, p.Gap, p.Metal, p.Level, phys.Microns(p.LengthUm),
			p.DutyCycle, p.J0MA, p.TrefC),
		ruleKey: levelRuleKey(p.Node, p.Gap, p.Metal, p.Level, p.J0MA, p.TrefC),
	}, nil
}

// lineValid reports, without building the technology, that line would
// succeed: a known node, gap and metal, a level the node has, and a
// length tech.Line accepts. A false answer may be conservative; the
// caller then asks line itself.
func (p rulesParams) lineValid() bool {
	n, ok := techNodes[p.Node]
	if !ok || p.Level < 1 || p.Level > n.levels || phys.Microns(p.LengthUm) <= 0 {
		return false
	}
	if p.Gap != "" {
		// A lower level's stack holds the gap-fill, which must conduct.
		if d, err := material.DielectricByName(p.Gap); err != nil || !(d.ThermalCond > 0) {
			return false
		}
	}
	if p.Metal != "" {
		if _, err := material.MetalByName(p.Metal); err != nil {
			return false
		}
	}
	return true
}

// line builds the query's technology and its line.
func (p rulesParams) line() (*ntrs.Technology, *geometry.Line, error) {
	tech, err := resolveTech(p.Node, p.Gap, p.Metal)
	if err != nil {
		return nil, nil, err
	}
	line, err := tech.Line(p.Level, phys.Microns(p.LengthUm))
	if err != nil {
		return nil, nil, badRequestf("%v", err)
	}
	return tech, line, nil
}

// solveRules answers one prepared rules query. It must run inside a
// pool slot: the solve and the deck row count against the same global
// solver concurrency bound as sweep fan-out and batch signoff.
func (s *Server) solveRules(ctx context.Context, wk *rulesWork) (*RulesResponse, error) {
	sol, hit, solCoal, solStale, err := s.solveCached(ctx, wk.solveKey, func() (core.Problem, error) {
		_, line, err := wk.p.line()
		return core.Problem{
			Line:  line,
			Model: *wk.spec.Model,
			R:     wk.p.DutyCycle,
			J0:    phys.MAPerCm2(wk.p.J0MA),
			Tref:  phys.CToK(wk.p.TrefC),
		}, err
	})
	if err != nil {
		return nil, err
	}
	rule, ruleCoal, ruleStale, err := s.levelRuleCached(ctx, wk.ruleKey, func() (*ntrs.Technology, error) {
		return resolveTech(wk.p.Node, wk.p.Gap, wk.p.Metal)
	}, wk.p.Level, wk.spec)
	if err != nil {
		return nil, err
	}
	return &RulesResponse{
		Node:      wk.p.Node,
		Level:     wk.p.Level,
		DutyCycle: wk.p.DutyCycle,
		J0MA:      wk.p.J0MA,
		Solve:     solveJSON(sol),
		Rule:      levelRuleJSON(rule),
		Cached:    hit,
		Coalesced: solCoal || ruleCoal,
		Stale:     solStale || ruleStale,
	}, nil
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	var req RulesRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	wk, err := s.prepareRules(req.params())
	if err != nil {
		writeError(w, err)
		return
	}
	var resp *RulesResponse
	err = s.pool.ForEach(r.Context(), 1, func(ctx context.Context, _ int) error {
		var err error
		resp, err = s.solveRules(ctx, wk)
		return err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the /v1/batch body: many rules queries answered in
// one round trip through the shared pool and the coalescer.
type BatchRequest struct {
	Requests []RulesRequest `json:"requests"`
}

// BatchItemJSON is one batch entry's outcome: exactly one of Rules or
// Error is set. Per-entry failures (bad level, no solution) do not fail
// the batch; only malformed envelopes and whole-request lifecycle
// errors (deadline, overload) do.
type BatchItemJSON struct {
	Rules *RulesResponse `json:"rules,omitempty"`
	Error *ErrorDetail   `json:"error,omitempty"`
}

// BatchResponse returns results in request order. Identical entries
// (same canonical solve key after defaulting) are answered by one
// computation; Deduped counts the entries folded into another.
type BatchResponse struct {
	Results  []BatchItemJSON `json:"results"`
	Requests int             `json:"requests"`
	Unique   int             `json:"unique"`
	Deduped  int             `json:"deduped"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, badRequestf("empty batch"))
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeError(w, badRequestf("%d batch entries exceeds limit %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}

	// Validate every entry and fold duplicates onto one slot before any
	// solver time is spent; entries that fail validation carry their own
	// error and never reach the pool.
	type slot struct {
		wk   *rulesWork
		resp *RulesResponse
		err  error
	}
	items := make([]*slot, len(req.Requests))
	var unique []*slot
	valid := 0
	byKey := make(map[string]*slot)
	for i := range req.Requests {
		wk, err := s.prepareRules(req.Requests[i].params())
		if err != nil {
			items[i] = &slot{err: err}
			continue
		}
		valid++
		if sl, ok := byKey[wk.solveKey]; ok {
			items[i] = sl
			continue
		}
		sl := &slot{wk: wk}
		byKey[wk.solveKey] = sl
		unique = append(unique, sl)
		items[i] = sl
	}

	// Unique entries fan across the shared pool; per-entry solver
	// failures are captured in their slot, not propagated, so one bad
	// entry cannot cancel its siblings.
	err := s.pool.ForEach(r.Context(), len(unique), func(ctx context.Context, i int) error {
		unique[i].resp, unique[i].err = s.solveRules(ctx, unique[i].wk)
		return ctx.Err()
	})
	if err != nil {
		writeError(w, err)
		return
	}

	resp := BatchResponse{
		Results:  make([]BatchItemJSON, 0, len(items)),
		Requests: len(req.Requests),
		Unique:   len(unique),
		Deduped:  valid - len(unique),
	}
	for _, sl := range items {
		if sl.err != nil {
			d := errorDetail(sl.err)
			resp.Results = append(resp.Results, BatchItemJSON{Error: &d})
		} else {
			resp.Results = append(resp.Results, BatchItemJSON{Rules: sl.resp})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// SweepRequest asks for a duty-cycle sweep on one level — the Fig. 2/3
// horizontal axis, fanned across the worker pool. Numeric fields are
// pointers for the same presence-vs-zero reasons as RulesRequest.
type SweepRequest struct {
	Node     string   `json:"node"`
	Level    int      `json:"level"`
	J0MA     *float64 `json:"j0MA,omitempty"`
	Gap      string   `json:"gap,omitempty"`
	Metal    string   `json:"metal,omitempty"`
	TrefC    *float64 `json:"trefC,omitempty"`
	LengthUm *float64 `json:"lengthUm,omitempty"`
	// Points selects the log-spaced 1e-4…1 grid size (default 13;
	// 2 ≤ points ≤ MaxSweepPoints); DutyCycles, when non-empty,
	// overrides the grid entirely.
	Points     *int      `json:"points,omitempty"`
	DutyCycles []float64 `json:"dutyCycles,omitempty"`
}

// SweepPointJSON is one sweep result row.
type SweepPointJSON struct {
	R float64 `json:"r"`
	SolveJSON
}

// SweepResponse returns points in request order.
type SweepResponse struct {
	Node   string           `json:"node"`
	Level  int              `json:"level"`
	J0MA   float64          `json:"j0MA"`
	Points []SweepPointJSON `json:"points"`
	// Stale reports that at least one point was a degraded-mode cache
	// hit past the freshness horizon (breaker open).
	Stale bool `json:"stale,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	// Validate the grid size BEFORE materializing anything: points
	// drives a make() inside core.Fig2DutyCycles, so a negative count
	// must never reach it (panic) and an absurd one must never allocate
	// gigabytes before this check rejects it.
	points := 13
	if req.Points != nil {
		points = *req.Points
	}
	if points < 2 || points > s.cfg.MaxSweepPoints {
		writeError(w, badRequestf("points %d outside [2, %d]", points, s.cfg.MaxSweepPoints))
		return
	}
	if len(req.DutyCycles) > s.cfg.MaxSweepPoints {
		writeError(w, badRequestf("%d sweep points exceeds limit %d", len(req.DutyCycles), s.cfg.MaxSweepPoints))
		return
	}
	node := req.Node
	if node == "" {
		node = "0.25"
	}
	j0MA := orDefault(req.J0MA, 1.8)
	trefC := orDefault(req.TrefC, 100)
	lengthUm := orDefault(req.LengthUm, 2000)
	tech, err := resolveTech(node, req.Gap, req.Metal)
	if err != nil {
		writeError(w, err)
		return
	}
	line, err := tech.Line(req.Level, phys.Microns(lengthUm))
	if err != nil {
		writeError(w, badRequestf("%v", err))
		return
	}
	rs := req.DutyCycles
	if len(rs) == 0 {
		rs = core.Fig2DutyCycles(points)
	}
	spec := rules.Spec{J0: phys.MAPerCm2(j0MA), Tref: phys.CToK(trefC)}
	if err := spec.Validate(); err != nil {
		writeError(w, err)
		return
	}

	pts := make([]SweepPointJSON, len(rs))
	var anyStale atomic.Bool
	err = s.pool.ForEach(r.Context(), len(rs), func(ctx context.Context, i int) error {
		duty := rs[i]
		sol, _, _, stale, err := s.solveCached(ctx,
			solveKey(node, req.Gap, req.Metal, req.Level, line.Length,
				duty, j0MA, trefC),
			func() (core.Problem, error) {
				return core.Problem{
					Line:  line,
					Model: *spec.Model,
					R:     duty,
					J0:    phys.MAPerCm2(j0MA),
					Tref:  phys.CToK(trefC),
				}, nil
			})
		if err != nil {
			return fmt.Errorf("sweep at r=%g: %w", duty, err)
		}
		if stale {
			anyStale.Store(true)
		}
		pts[i] = SweepPointJSON{R: duty, SolveJSON: solveJSON(sol)}
		s.metrics.SweepPoints.Add(1)
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{
		Node: node, Level: req.Level, J0MA: j0MA, Points: pts,
		Stale: anyStale.Load(),
	})
}

// FindingJSON is one netcheck finding in report units.
type FindingJSON struct {
	Net            string  `json:"net"`
	Segment        string  `json:"segment"`
	Level          int     `json:"level"`
	JpeakMA        float64 `json:"jpeakMA"`
	JrmsMA         float64 `json:"jrmsMA"`
	JavgMA         float64 `json:"javgMA"`
	Reff           float64 `json:"reff"`
	LimitMA        float64 `json:"limitMA"`
	Margin         float64 `json:"margin"`
	TmC            float64 `json:"tmC"`
	ThermallyShort bool    `json:"thermallyShort,omitempty"`
	BlechImmortal  bool    `json:"blechImmortal,omitempty"`
	Verdict        string  `json:"verdict"`
}

// NetcheckResponse is the batch signoff result, findings worst-first
// (the netcheck report order).
type NetcheckResponse struct {
	Worst      string            `json:"worst"`
	ByNet      map[string]string `json:"byNet"`
	Findings   []FindingJSON     `json:"findings"`
	Segments   int               `json:"segments"`
	DeckCached bool              `json:"deckCached"`
	// DeckCoalesced reports whether the deck came from another
	// request's in-flight generation.
	DeckCoalesced bool `json:"deckCoalesced"`
	// DeckStale reports the deck was a degraded-mode cache hit past the
	// freshness horizon (breaker open).
	DeckStale bool `json:"deckStale,omitempty"`
}

func (s *Server) handleNetcheck(w http.ResponseWriter, r *http.Request) {
	df, err := netcheck.ParseDesign(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	// Cap the fan-out before materializing anything: only the body-size
	// limit bounds the segment count otherwise, and one giant design
	// would monopolize the pool for its whole deadline.
	if s.cfg.MaxSegments > 0 && len(df.Segments) > s.cfg.MaxSegments {
		writeError(w, badRequestf("%d segments exceeds limit %d", len(df.Segments), s.cfg.MaxSegments))
		return
	}
	tech, err := df.Tech()
	if err != nil {
		writeError(w, err)
		return
	}
	deck, deckHit, deckCoal, deckStale, err := s.deckCached(r.Context(), deckKey(df.Node, df.Gap, df.Metal, df.J0MA), tech, df.Spec())
	if err != nil {
		writeError(w, err)
		return
	}
	segs, err := df.MaterializeSegments(deck.Tech)
	if err != nil {
		writeError(w, err)
		return
	}
	// Per-segment work goes through the shared pool, not a private
	// worker set: netcheck solves count against the same global
	// concurrency bound as sweep fan-out.
	rep, err := netcheck.CheckWith(r.Context(), netcheck.Config{Deck: deck}, segs, s.pool.ForEach)
	if err != nil {
		writeError(w, err)
		return
	}
	s.metrics.SegsChecked.Add(uint64(len(segs)))

	resp := NetcheckResponse{
		Worst:         rep.Worst().String(),
		ByNet:         make(map[string]string, len(rep.ByNet)),
		Findings:      make([]FindingJSON, 0, len(rep.Findings)),
		Segments:      len(segs),
		DeckCached:    deckHit,
		DeckCoalesced: deckCoal,
		DeckStale:     deckStale,
	}
	for net, v := range rep.ByNet {
		resp.ByNet[net] = v.String()
	}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, FindingJSON{
			Net:            f.Segment.Net,
			Segment:        f.Segment.Name,
			Level:          f.Segment.Level,
			JpeakMA:        phys.ToMAPerCm2(f.Jpeak),
			JrmsMA:         phys.ToMAPerCm2(f.Jrms),
			JavgMA:         phys.ToMAPerCm2(f.Javg),
			Reff:           f.Reff,
			LimitMA:        phys.ToMAPerCm2(f.Limit),
			Margin:         f.Margin,
			TmC:            phys.KToC(f.Tm),
			ThermallyShort: f.ThermallyShort,
			BlechImmortal:  f.BlechImmortal,
			Verdict:        f.Verdict.String(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// TechLayerJSON is one metallization level of the tech response.
type TechLayerJSON struct {
	Level           int     `json:"level"`
	Class           string  `json:"class"`
	WidthUm         float64 `json:"widthUm"`
	ThickUm         float64 `json:"thickUm"`
	PitchUm         float64 `json:"pitchUm"`
	ILDUm           float64 `json:"ildUm"`
	SheetOhmsPerSq  float64 `json:"sheetOhmsPerSq"`
	AspectRatio     float64 `json:"aspectRatio"`
	HealingLengthUm float64 `json:"healingLengthUm"`
}

// TechResponse describes one technology.
type TechResponse struct {
	Name      string          `json:"name"`
	FeatureUm float64         `json:"featureUm"`
	Vdd       float64         `json:"vdd"`
	ClockMHz  float64         `json:"clockMHz"`
	Metal     string          `json:"metal"`
	ILD       string          `json:"ild"`
	Gap       string          `json:"gap"`
	Layers    []TechLayerJSON `json:"layers"`
}

func (s *Server) handleTech(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tech, err := resolveTech(q.Get("node"), q.Get("gap"), q.Get("metal"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := TechResponse{
		Name:      tech.Name,
		FeatureUm: phys.ToMicrons(tech.Feature),
		Vdd:       tech.Vdd,
		ClockMHz:  tech.Clock / 1e6,
		Metal:     tech.Metal.Name,
		ILD:       tech.ILD.Name,
		Gap:       tech.Gap.Name,
	}
	model := rules.Spec{}
	if err := model.Validate(); err != nil {
		writeError(w, err)
		return
	}
	for _, l := range tech.Layers {
		line, err := tech.Line(l.Level, model.ReferenceLength)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Layers = append(resp.Layers, TechLayerJSON{
			Level:           l.Level,
			Class:           l.Class.String(),
			WidthUm:         phys.ToMicrons(l.Width),
			ThickUm:         phys.ToMicrons(l.Thick),
			PitchUm:         phys.ToMicrons(l.Pitch),
			ILDUm:           phys.ToMicrons(l.ILD),
			SheetOhmsPerSq:  tech.Metal.SheetResistance(l.Thick, material.Tref100C),
			AspectRatio:     l.AspectRatio(),
			HealingLengthUm: phys.ToMicrons(model.Model.HealingLength(line)),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.SnapshotNow(s.cache, s.pool, s.admission, &s.flights, s.quarantine, s.breaker, s.jobs))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is the readiness probe: liveness (/healthz) says "the
// process is up", readiness says "route traffic here". It answers 503
// while the server is draining for shutdown or while the boot-time
// snapshot restore is still warming the cache, so load balancers shift
// traffic before requests start bouncing or missing cold.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case s.loading.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "loading"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}
