package server

import (
	"context"
	"net/http"

	"dsmtherm/internal/chipcheck"
)

// handleChipcheck is the synchronous full-chip coupled EM + IR-drop +
// thermal signoff path, sized for sub-second grids (the node count is
// capped by Config.MaxChipNodes). The coupled solve, the verdict pass
// and the report run as one pool task on the handler's goroutine — one
// logical solver task, whose solve kernels parallelize through mathx
// workers while the verdict pass is a serial loop — so chip checks
// count against the same global concurrency bound as every other solver
// route. Grids past the cap belong on the bulk job lane ("chipcheck"
// job type), which also streams per-segment verdicts without the
// synchronous response-size cap.
func (s *Server) handleChipcheck(w http.ResponseWriter, r *http.Request) {
	var p chipcheck.Params
	if err := decodeJSON(r, &p); err != nil {
		writeError(w, err)
		return
	}
	// Compile validates without solving, so the cap check runs before
	// any numeric work.
	check, err := chipcheck.Compile(p)
	if err != nil {
		writeError(w, err)
		return
	}
	if nodes := p.Nx * p.Ny; s.cfg.MaxChipNodes > 0 && nodes > s.cfg.MaxChipNodes {
		writeError(w, badRequestf("%d grid nodes exceeds synchronous limit %d; submit a %q job instead",
			nodes, s.cfg.MaxChipNodes, "chipcheck"))
		return
	}
	var res *chipcheck.Result
	err = s.pool.ForEach(r.Context(), 1, func(ctx context.Context, _ int) error {
		f, err := check.Solve(ctx)
		if err != nil {
			return err
		}
		verdicts, err := check.Verdicts(f, 0, check.NumBranches())
		if err != nil {
			return err
		}
		res, err = check.Report(f, verdicts)
		return err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if writeJSON(w, http.StatusOK, res) {
		s.metrics.Chipchecks.Add(1)
		s.metrics.ChipSegments.Add(uint64(res.Summary.Branches))
	}
}
