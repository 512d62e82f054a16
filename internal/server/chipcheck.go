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
// route. The solve runs on the geometry's operator from the server's
// store, built inside the task on a miss, so a repeat geometry with new
// loads pays no assembly, ordering or factorization. Grids past the cap
// belong on the bulk job lane ("chipcheck" job type), which also
// streams per-segment verdicts without the synchronous response-size
// cap.
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
		op, err := s.operator(ctx, check)
		if err != nil {
			return err
		}
		f, err := check.SolveWith(ctx, op)
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

// chipOperatorBudget bounds the bytes of the chipcheck operators the
// server keeps: eleven 48×32 pad-ring grids (1.37 MB each), or two
// 64×64 ones at the default synchronous cap of 4096 nodes (5.7 MB).
const chipOperatorBudget = 16 << 20

// operatorCost charges a kept operator its estimated bytes; an error
// outcome holds none and is charged 1.
func operatorCost(val any) int {
	if op := val.(outcome[*chipcheck.Operator]).v; op != nil {
		return op.Bytes()
	}
	return 1
}

// operatorKey is c's geometry key under a family prefix of its own, so
// it meets no solve, rule or deck key in the flight group or the
// quarantine.
func operatorKey(c *chipcheck.Check) string { return "chip|" + c.Key() }

// operator returns the operator for c's geometry from the operator
// store, building it on a miss through cached: concurrent misses on one
// geometry coalesce onto one build, and a build meets the quarantine
// and the breaker as a solve does.
func (s *Server) operator(ctx context.Context, c *chipcheck.Check) (*chipcheck.Operator, error) {
	op, _, _, _, err := cached(ctx, s, s.operators, operatorKey(c), func() (*chipcheck.Operator, error) {
		s.metrics.ChipOperatorBuilds.Add(1)
		return c.NewOperator()
	})
	return op, err
}
