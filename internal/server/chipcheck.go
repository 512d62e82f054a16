package server

import (
	"container/list"
	"context"
	"net/http"
	"sync"

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
		op, err := s.operators.get(check)
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

// operatorStore keeps the chipcheck operators of recently checked grid
// geometries by their exact key, evicting the least recently used to
// stay within budget bytes; an operator larger than the budget is used
// once and not kept. Two concurrent misses on one key both build, and
// the first to finish is kept.
type operatorStore struct {
	budget int
	m      *Metrics // operator hits, builds and retained bytes

	mu    sync.Mutex
	lru   list.List // *operatorEntry, most recently used first
	byKey map[string]*list.Element
	bytes int
}

type operatorEntry struct {
	key   string
	op    *chipcheck.Operator
	bytes int
}

func newOperatorStore(budget int, m *Metrics) *operatorStore {
	return &operatorStore{budget: budget, m: m, byKey: make(map[string]*list.Element)}
}

// get returns the operator for c's geometry, building it on a miss.
func (st *operatorStore) get(c *chipcheck.Check) (*chipcheck.Operator, error) {
	key := c.Key()
	st.mu.Lock()
	if e, ok := st.byKey[key]; ok {
		st.lru.MoveToFront(e)
		st.mu.Unlock()
		st.m.ChipOperatorHits.Add(1)
		return e.Value.(*operatorEntry).op, nil
	}
	st.mu.Unlock()
	op, err := c.NewOperator()
	if err != nil {
		return nil, err
	}
	st.m.ChipOperatorBuilds.Add(1)
	st.put(key, op)
	return op, nil
}

func (st *operatorStore) put(key string, op *chipcheck.Operator) {
	n := op.Bytes()
	if n > st.budget {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byKey[key]; ok {
		return
	}
	for st.bytes+n > st.budget {
		e := st.lru.Remove(st.lru.Back()).(*operatorEntry)
		delete(st.byKey, e.key)
		st.bytes -= e.bytes
	}
	st.byKey[key] = st.lru.PushFront(&operatorEntry{key: key, op: op, bytes: n})
	st.bytes += n
	st.m.ChipOperatorBytes.Store(int64(st.bytes))
}

// drop releases every kept operator.
func (st *operatorStore) drop() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lru.Init()
	clear(st.byKey)
	st.bytes = 0
	st.m.ChipOperatorBytes.Store(0)
}
