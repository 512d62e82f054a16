package server

import (
	"context"
	"net/http"

	"dsmtherm/internal/lifetime"
)

// handleLifetime is the synchronous chip-level statistical lifetime
// path: compile the segment census, stream the Monte Carlo samples
// through a quantile sketch, and report TTF quantiles against the
// design goal. Sampling is closed-form per chip (O(classes), no root
// solves), so the default cap's worth of samples finishes well inside
// a request deadline; it still runs inside one pool slot because it is
// one logical compute task. Bigger studies belong on the bulk job lane
// ("lifetime" job type), which chunks the same sample stream into
// journaled, mergeable sketch states.
func (s *Server) handleLifetime(w http.ResponseWriter, r *http.Request) {
	var p lifetime.Params
	if err := decodeJSON(r, &p); err != nil {
		writeError(w, err)
		return
	}
	// Compile validates without sampling, so the cap check runs before
	// any numeric work.
	model, err := lifetime.Compile(p)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.cfg.MaxLifetimeSamples > 0 && model.Samples > s.cfg.MaxLifetimeSamples {
		writeError(w, badRequestf("%d samples exceeds synchronous limit %d; submit a %q job instead",
			model.Samples, s.cfg.MaxLifetimeSamples, "lifetime"))
		return
	}
	var rep *lifetime.Report
	err = s.pool.ForEach(r.Context(), 1, func(ctx context.Context, _ int) error {
		// One sketch fed in ChunkSamples slices: the same Add sequence
		// as one uninterrupted pass, with a cancellation check between
		// slices so a departed client stops the sampling.
		sk := lifetime.NewSketch()
		n := model.ChunkSamples()
		for lo := 0; lo < model.Samples; lo += n {
			if err := model.SampleRange(sk, lo, min(lo+n, model.Samples)); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rep, err = model.BuildReport(sk)
		return err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if writeJSON(w, http.StatusOK, rep) {
		s.metrics.Lifetimes.Add(1)
		s.metrics.LifetimeSamples.Add(uint64(rep.Samples))
	}
}
