package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/netcheck"
	"dsmtherm/internal/server"
)

// Workloads. Every loop is closed: a client sends its next request only
// after the previous reply, because the daemon's callers (a rule-deck
// generator, a signoff run, a job submitter) each wait for their
// answer. On a 2-CPU host an open-loop scheduler would mostly measure
// its own timer lateness.
const (
	interactive = "interactive"
	chipscale   = "chipscale"
	contended   = "contended"
)

var workloads = []string{interactive, chipscale, contended}

// Deep-check sampling: one reply in every N of a kind, up to a cap per
// client and phase, is kept and compared with the direct computation
// after the measured window. Job results are always kept.
var sampling = map[string]struct{ every, max int }{
	"rules":            {64, 400},
	"batch":            {16, 40},
	"netcheck":         {4, 8},
	"chipcheck.medium": {8, 3},
	"chipcheck.small":  {8, 3},
	"lifetime":         {8, 3},
}

// pollEvery is how often the job client polls a running job.
const pollEvery = 20 * time.Millisecond

// sample is one kept reply.
type sample struct {
	kind   string
	key    ruleKey   // rules
	keys   []ruleKey // batch
	design *netcheck.DesignFile
	params any // chipcheck.Params, lifetime.Params or jobs.SubmitRequest
	reply  any // the decoded reply (rules, batch, netcheck)
	body   []byte
}

// jobRun is what the traced run measured of one job from outside.
type jobRun struct {
	typ       string
	chunks    int
	queueWait time.Duration
	run       time.Duration
	writeMB   float64
}

// clientStats is one client's tally of one phase; only its own
// goroutine writes it.
type clientStats struct {
	lat       map[string][]float64 // ms per successful operation, or per whole "cycle"
	attempted int
	failed    int
	failures  []string
	samples   []sample
	kept      map[string]int
	missed    map[ruleKey]bool // rules keys the daemon solved (not cached)
	passes    map[string][]float64
	batchReqs float64
	deduped   float64
}

func newClientStats() *clientStats {
	return &clientStats{
		lat: map[string][]float64{}, kept: map[string]int{}, missed: map[ruleKey]bool{}, passes: map[string][]float64{},
	}
}

func (st *clientStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

// keep reports whether this reply of kind is kept for a deep check.
func (st *clientStats) keep(kind string, sel *rand.Rand) bool {
	s := sampling[kind]
	if sel.Intn(s.every) != 0 || st.kept[kind] >= s.max {
		return false
	}
	st.kept[kind]++
	return true
}

// phase is one measured window.
type phase struct {
	start    time.Time
	deadline time.Time
	elapsed  time.Duration
	clients  []*clientStats

	// Sampled by the phase sampler.
	peakHeap float64 // bytes
	waiting  []float64
	busy     []float64

	mu   sync.Mutex
	jobs []jobRun
}

func (ph *phase) over() bool { return !time.Now().Before(ph.deadline) }

// merged folds the per-client tallies.
func (ph *phase) merged() *clientStats {
	m := newClientStats()
	for _, st := range ph.clients {
		for k, v := range st.lat {
			m.lat[k] = append(m.lat[k], v...)
		}
		for k, v := range st.passes {
			m.passes[k] = append(m.passes[k], v...)
		}
		for k := range st.missed {
			m.missed[k] = true
		}
		m.attempted += st.attempted
		m.failed += st.failed
		m.failures = append(m.failures, st.failures...)
		m.samples = append(m.samples, st.samples...)
		m.batchReqs += st.batchReqs
		m.deduped += st.deduped
	}
	return m
}

// fetch sends one request of an operation kind and decodes a 2xx reply
// into out (out nil keeps only the body).
func fetch(ctx context.Context, c *client, kind, method, path string, in, out any) (reply, error) {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return reply{}, err
		}
		body = b
	}
	rep, err := c.call(ctx, kind, method, path, body)
	if err != nil {
		return rep, err
	}
	if err := rep.errStatus(); err != nil {
		return rep, err
	}
	if out == nil {
		var raw json.RawMessage
		return rep, decodeStrict(rep.body, &raw)
	}
	return rep, decodeStrict(rep.body, out)
}

// op is one counted operation: a request whose reply must be 2xx and
// decode into out. It records the latency on success and the failure
// otherwise.
func op(ctx context.Context, c *client, st *clientStats, kind, path string, in, out any) (reply, bool) {
	st.attempted++
	rep, err := fetch(ctx, c, kind, http.MethodPost, path, in, out)
	if err != nil {
		if ctx.Err() != nil {
			st.attempted--
			return rep, false
		}
		st.fail("%s: %v", kind, err)
		return rep, false
	}
	st.lat[kind] = append(st.lat[kind], float64(rep.rt)/1e6)
	return rep, true
}

func doRules(ctx context.Context, c *client, st *clientStats, sel *rand.Rand, k ruleKey) {
	var resp server.RulesResponse
	if _, ok := op(ctx, c, st, "rules", "/v1/rules", k.request(), &resp); !ok {
		return
	}
	if !resp.Cached {
		st.missed[k] = true
	}
	if st.keep("rules", sel) {
		st.samples = append(st.samples, sample{kind: "rules", key: k, reply: &resp})
	}
}

func doBatch(ctx context.Context, c *client, st *clientStats, sel *rand.Rand, keys []ruleKey) {
	req := server.BatchRequest{Requests: make([]server.RulesRequest, len(keys))}
	for i, k := range keys {
		req.Requests[i] = k.request()
	}
	var resp server.BatchResponse
	if _, ok := op(ctx, c, st, "batch", "/v1/batch", req, &resp); !ok {
		return
	}
	st.batchReqs += float64(resp.Requests)
	st.deduped += float64(resp.Deduped)
	if st.keep("batch", sel) {
		st.samples = append(st.samples, sample{kind: "batch", keys: keys, reply: &resp})
	}
}

func doNetcheck(ctx context.Context, c *client, st *clientStats, sel *rand.Rand, df netcheck.DesignFile) {
	var resp server.NetcheckResponse
	if _, ok := op(ctx, c, st, "netcheck", "/v1/netcheck", df, &resp); !ok {
		return
	}
	if resp.Segments != len(df.Segments) {
		st.fail("netcheck: %d segments checked of %d", resp.Segments, len(df.Segments))
		return
	}
	if st.keep("netcheck", sel) {
		st.samples = append(st.samples, sample{kind: "netcheck", design: &df, reply: &resp})
	}
}

func doChipcheck(ctx context.Context, c *client, st *clientStats, sel *rand.Rand, class string, p chipcheck.Params) {
	kind := "chipcheck." + class
	var res chipcheck.Result
	rep, ok := op(ctx, c, st, kind, "/v1/chipcheck", p, &res)
	if !ok {
		return
	}
	if !res.Summary.Converged {
		st.fail("%s: fixed point did not converge", kind)
		return
	}
	st.passes[class] = append(st.passes[class], float64(res.Summary.Iterations))
	if st.keep(kind, sel) {
		st.samples = append(st.samples, sample{kind: kind, params: p, body: rep.body})
	}
}

func doLifetime(ctx context.Context, c *client, st *clientStats, sel *rand.Rand, p lifetime.Params) {
	var rep lifetime.Report
	r, ok := op(ctx, c, st, "lifetime", "/v1/lifetime", p, &rep)
	if !ok {
		return
	}
	if rep.Samples != p.Samples {
		st.fail("lifetime: %d samples reported of %d", rep.Samples, p.Samples)
		return
	}
	if st.keep("lifetime", sel) {
		st.samples = append(st.samples, sample{kind: "lifetime", params: p, body: r.body})
	}
}

// runJob submits one job, polls it to a terminal state on the same
// connection, and fetches its result. The job counts as one operation.
// While tracing, a watcher added to watchers also times the job's queue
// wait and run from the manager's own Get and Done, and its write
// traffic from /proc/self/io.
func (b *bench) runJob(ctx context.Context, d *daemon, c *client, st *clientStats, ph *phase, req jobs.SubmitRequest, watchers *sync.WaitGroup) bool {
	st.attempted++
	kind := "job." + req.Type
	start := time.Now()
	w0 := wchar()
	var v jobs.View
	if _, err := fetch(ctx, c, "jobs", http.MethodPost, "/v1/jobs", req, &v); err != nil {
		if ctx.Err() == nil {
			st.fail("%s submit: %v", kind, err)
		}
		return false
	}
	if b.tr.on.Load() {
		watchers.Add(1)
		go b.watchJob(ctx, d, ph, req.Type, v.ID, start, w0, watchers)
	}
	for !v.Status.Terminal() {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(pollEvery):
		}
		if _, err := fetch(ctx, c, "jobs", http.MethodGet, "/v1/jobs/"+v.ID, nil, &v); err != nil {
			if ctx.Err() == nil {
				st.fail("%s poll: %v", kind, err)
			}
			return false
		}
	}
	if v.Status != jobs.StatusDone {
		st.fail("%s ended %s: %s", kind, v.Status, v.Error)
		return false
	}
	rep, err := fetch(ctx, c, "jobs", http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil, nil)
	if err != nil {
		if ctx.Err() == nil {
			st.fail("%s result: %v", kind, err)
		}
		return false
	}
	st.lat[kind] = append(st.lat[kind], float64(time.Since(start))/1e6)
	st.samples = append(st.samples, sample{kind: kind, params: req, body: rep.body})
	return true
}

func (b *bench) watchJob(ctx context.Context, d *daemon, ph *phase, typ, id string, start time.Time, w0 float64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		v, err := d.jm.Get(id)
		if err != nil || v.Status != jobs.StatusQueued {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	running := time.Now()
	done, err := d.jm.Done(id)
	if err != nil {
		return
	}
	select {
	case <-ctx.Done():
		return
	case <-done:
	}
	end := time.Now()
	v, err := d.jm.Get(id)
	if err != nil {
		return
	}
	ph.mu.Lock()
	ph.jobs = append(ph.jobs, jobRun{typ: typ, chunks: v.Chunks, queueWait: running.Sub(start), run: end.Sub(running), writeMB: (wchar() - w0) / 1e6})
	ph.mu.Unlock()
}

// measure runs the workload's clients for one window.
func (b *bench) measure(ctx context.Context, d *daemon, window time.Duration) *phase {
	ph := &phase{start: time.Now()}
	ph.deadline = ph.start.Add(window)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go b.sampleLoop(d, ph, stop, sampled)

	var wg, watchers sync.WaitGroup
	client := func(body func(st *clientStats)) {
		st := newClientStats()
		ph.clients = append(ph.clients, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(st)
		}()
	}
	switch b.workload {
	case interactive:
		for i := 0; i < 2; i++ {
			g, sel, c := b.gens[i], b.sels[i], b.clients[i]
			client(func(st *clientStats) {
				for !ph.over() && ctx.Err() == nil {
					switch u := g.r.Intn(100); {
					case u < 88:
						doRules(ctx, c, st, sel, g.ruleKey())
					case u < 96:
						doBatch(ctx, c, st, sel, g.batch())
					default:
						doNetcheck(ctx, c, st, sel, g.design())
					}
				}
			})
		}
	case chipscale:
		// Two signoff clients, each running rounds of a medium check, a
		// small check and a lifetime study, each waiting for the
		// previous result. With a single client one core sits idle, so
		// every mathx.Yield park pays the VM's wake-up latency for an
		// idle vCPU, which swings between about 0.1 and 1.1 ms with the
		// host's state and made the medium check's median bimodal
		// (151-175 ms against 249-263 ms over ten runs); two clients
		// keep both cores busy.
		for i := 0; i < 2; i++ {
			g, sel, c := b.gens[i], b.sels[i], b.clients[i]
			client(func(st *clientStats) {
				for !ph.over() && ctx.Err() == nil {
					start, failed := time.Now(), st.failed
					doChipcheck(ctx, c, st, sel, "medium", g.mediumGrid())
					doChipcheck(ctx, c, st, sel, "small", g.smallGrid())
					doLifetime(ctx, c, st, sel, g.census(200000))
					if st.failed == failed && ctx.Err() == nil {
						st.lat["cycle"] = append(st.lat["cycle"], float64(time.Since(start))/1e6)
					}
				}
			})
		}
	case contended:
		// The job client runs whole cycles while the window lasts; the
		// rules client runs until the job client's last cycle ends, so
		// every cycle shares the host with interactive traffic.
		jobsDone := make(chan struct{})
		g, c := b.gens[0], b.clients[0]
		client(func(st *clientStats) {
			defer close(jobsDone)
			for !ph.over() && ctx.Err() == nil {
				start, ok := time.Now(), true
				for _, req := range g.jobCycle() {
					ok = b.runJob(ctx, d, c, st, ph, req, &watchers) && ok
				}
				if ok {
					st.lat["cycle"] = append(st.lat["cycle"], float64(time.Since(start))/1e6)
				}
			}
		})
		rg, rsel, rc := b.gens[1], b.sels[1], b.clients[1]
		client(func(st *clientStats) {
			for ctx.Err() == nil {
				select {
				case <-jobsDone:
					return
				default:
				}
				doRules(ctx, rc, st, rsel, rg.ruleKey())
			}
		})
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	watchers.Wait()
	close(stop)
	<-sampled
	return ph
}

// sampleLoop samples the heap in use and, while tracing, the daemon's
// admission queue and pool occupancy, until stop closes.
func (b *bench) sampleLoop(d *daemon, ph *phase, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(heap)
		ph.peakHeap = max(ph.peakHeap, float64(heap[0].Value.Uint64()+heap[1].Value.Uint64()))
		if b.tr.on.Load() {
			ph.waiting = append(ph.waiting, float64(d.srv.Admission().Waiting()))
			ph.busy = append(ph.busy, float64(d.srv.Pool().InUse())/float64(d.srv.Pool().Size()))
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// warmup fills the caches and runs every lazy set-up path the measured
// window will use, so the window measures steady state.
func (b *bench) warmup(ctx context.Context, d *daemon) error {
	c := d.clients[0]
	if err := d.waitReady(ctx, c); err != nil {
		return err
	}
	g := newGen(b.seed, 99, b.keys)
	switch b.workload {
	case interactive, contended:
		// The hottest keys, 256 to a batch, until the cache is nearly
		// full.
		for lo := 0; lo < 4096-64; lo += 256 {
			req := server.BatchRequest{}
			for _, k := range b.keys[lo:min(lo+256, 4096-64)] {
				req.Requests = append(req.Requests, k.request())
			}
			if _, err := fetch(ctx, c, "warmup", http.MethodPost, "/v1/batch", req, &server.BatchResponse{}); err != nil {
				return fmt.Errorf("batch: %w", err)
			}
		}
	}
	switch b.workload {
	case interactive:
		// One small design per deck the window can ask for.
		for _, n := range nodes {
			for _, j0 := range []float64{1.2, 1.5, 1.8} {
				df := g.design()
				df.Node, df.J0MA, df.Segments = n.name, j0, df.Segments[:10]
				for i := range df.Segments {
					df.Segments[i].Level = 1
				}
				if _, err := fetch(ctx, c, "warmup", http.MethodPost, "/v1/netcheck", df, &server.NetcheckResponse{}); err != nil {
					return fmt.Errorf("netcheck: %w", err)
				}
			}
		}
	case chipscale:
		// One request of each kind at full size.
		for _, p := range []chipcheck.Params{g.mediumGrid(), g.smallGrid()} {
			if _, err := fetch(ctx, c, "warmup", http.MethodPost, "/v1/chipcheck", p, &chipcheck.Result{}); err != nil {
				return fmt.Errorf("chipcheck: %w", err)
			}
		}
		if _, err := fetch(ctx, c, "warmup", http.MethodPost, "/v1/lifetime", g.census(200000), &lifetime.Report{}); err != nil {
			return fmt.Errorf("lifetime: %w", err)
		}
	case contended:
		// One one-chunk job of each type.
		lt := g.census(1000)
		cc := g.smallGrid()
		mc := jobs.MonteCarloParams{Samples: mcChunk, Seed: 1, WidthSigma: 0.05}
		st := newClientStats()
		var none sync.WaitGroup
		for _, req := range []jobs.SubmitRequest{
			{Type: jobs.TypeLifetime, Lifetime: &lt},
			{Type: jobs.TypeChipcheck, Chipcheck: &cc},
			{Type: jobs.TypeMonteCarlo, MonteCarlo: &mc},
		} {
			if !b.runJob(ctx, d, c, st, &phase{}, req, &none) {
				if len(st.failures) > 0 {
					return fmt.Errorf("%s", st.failures[0])
				}
				return ctx.Err()
			}
		}
	}
	return nil
}
