// Command perfbench is dsmthermd's end-to-end benchmark. It runs the
// daemon in this process on loopback, with the daemon's own defaults
// and a journaled job lane in a temporary directory, drives one seeded
// closed-loop workload through the real HTTP routes, checks every
// answer, and prints the end-to-end metrics (trace 0) or the per-layer
// metrics and the tracing overhead (trace 1). The last line of standard
// output is the result as one JSON object.
//
//	perfbench --workload interactive|chipscale|contended --seed N --seconds S --trace 0|1
//
// The run exits 0 only when every operation succeeded and every check
// passed; otherwise it names the workload and the failed check and
// exits 1. A watchdog bounds every run, and every exit path (success,
// a failed check, SIGINT/SIGTERM, the watchdog) stops the server and
// the job manager, closes the client connections and removes the
// journal directory.
//
// Seeds 1-10 are the tuning seeds; seed 1001 is kept for holdout
// checks of a claimed change.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/core"
	"dsmtherm/internal/jobs"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/server"
)

const (
	// setupRuns: set-up is repeated and its median reported, so a
	// single slow boot does not move setup_s.
	setupRuns = 5
	// runLimit bounds a whole run; the watchdog cancels the run at
	// runLimit and the process exits at runLimit+hardExitGrace whatever
	// the teardown is doing.
	runLimit      = 165 * time.Second
	hardExitGrace = 10 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload: interactive, chipscale or contended")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured window, seconds (1-60)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for journal dirs and span files")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload interactive|chipscale|contended, --seconds 1-60, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeoutCause(ctx, runLimit, errors.New("watchdog: run exceeded "+runLimit.String()))
	defer cancel()
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, os.Stdout)
	hard := time.AfterFunc(runLimit+hardExitGrace, func() {
		removeJournals(*workdir)
		fmt.Fprintf(os.Stderr, "perfbench: %s: teardown did not finish; exiting\n", *workload)
		os.Exit(3)
	})
	res, err := b.run(ctx)
	hard.Stop()
	if err != nil {
		if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) {
			err = fmt.Errorf("%w (%v)", err, cause)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", *workload, res.Failed, res.Attempted)
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", f)
		}
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workdir  string
	out      io.Writer

	tr      *tracer
	keys    keySpace
	gens    []*gen       // per client: the request stream
	sels    []*rand.Rand // per client: which replies are deep-checked
	clients []*client    // the live daemon's clients
	daemons []*daemon    // every daemon started; the teardown tests check each

	replayedSolves int // core.SolveCtx calls in the replay span
}

func newBench(workload string, seed int64, window time.Duration, traced bool, workdir string, out io.Writer) *bench {
	b := &bench{workload: workload, seed: seed, window: window, traced: traced, workdir: workdir, out: out, tr: newTracer(), keys: newKeySpace(seed)}
	for i := int64(0); i < 2; i++ {
		b.gens = append(b.gens, newGen(seed, 1+i, b.keys))
		b.sels = append(b.sels, rand.New(rand.NewSource(seedFor(seed, 50+i))))
	}
	return b
}

// removeJournals removes every journal directory under workdir; the
// hard exit uses it when a teardown hangs.
func removeJournals(workdir string) {
	dirs, _ := filepath.Glob(filepath.Join(workdir, "journal-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string // the first failures, each naming its check
}

// boot starts a daemon with the workload's clients and warms it up,
// returning the set-up time.
func (b *bench) boot(ctx context.Context) (*daemon, float64, error) {
	start := time.Now()
	var tr *tracer
	if b.traced {
		tr = b.tr
	}
	d, err := startDaemon(b.workdir, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	b.daemons = append(b.daemons, d)
	b.clients = nil
	for i := 0; i < 2; i++ {
		b.clients = append(b.clients, d.client(b.tr))
	}
	if err := b.warmup(ctx, d); err != nil {
		return d, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, time.Since(start).Seconds(), nil
}

// run sets up, measures, checks and tears down.
func (b *bench) run(ctx context.Context) (res *result, err error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		nd, s, err := b.boot(ctx)
		if nd != nil && (err != nil || i < setupRuns-1) {
			if serr := nd.stop(); err == nil && serr != nil {
				err = fmt.Errorf("stop daemon: %w", serr)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, s)
		d = nd
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stop daemon: %w", serr)
		}
	}()
	setup := median(setups)

	if !b.traced {
		ph := b.measure(ctx, d, b.window)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted: %w", err)
		}
		st := ph.merged()
		b.verify(ctx, st, &lifetimeReplay{})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted while checking: %w", err)
		}
		m := b.endToEnd(ph, st, setup)
		b.report(st, ph, m)
		return b.result(st, m), nil
	}

	// Traced run: an untraced half, then a traced half on the same
	// daemon. The untraced half's kept replies are checked as in an
	// untraced run; the traced half's are checked one at a time with
	// tracing on, so those checks are the direct-call replays. The
	// end-to-end figures of the two halves give the tracing overhead.
	plain := b.measure(ctx, d, b.window/2)
	before, err := b.counters(ctx, d)
	if err != nil {
		return nil, err
	}
	b.tr.on.Store(true)
	traced := b.measure(ctx, d, b.window/2)
	b.tr.on.Store(false)
	after, err := b.counters(ctx, d)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted: %w", err)
	}
	ps, ts := plain.merged(), traced.merged()
	b.verify(ctx, ps, &lifetimeReplay{})
	lt := &lifetimeReplay{}
	b.tr.on.Store(true)
	b.verify(ctx, ts, lt)
	b.replayKernels(ctx, ts)
	b.tr.on.Store(false)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted while checking: %w", err)
	}

	mp := b.endToEnd(plain, ps, setup)
	mt := b.endToEnd(traced, ts, setup)
	layers := b.perLayer(traced, ps, ts, before, after, lt)
	for _, e := range endToEndMetrics {
		if e.name != "setup_s" {
			layers["trace_overhead."+e.name] = metric{mt[e.name].Value - mp[e.name].Value, e.unit}
		}
	}
	ts.attempted += ps.attempted
	ts.failed += ps.failed
	ts.failures = append(ts.failures, ps.failures...)
	spans := filepath.Join(b.workdir, "spans-"+b.workload+".jsonl")
	if err := b.tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans written to %s\n", spans)
	b.report(ts, traced, layers)
	return b.result(ts, layers), nil
}

func (b *bench) result(st *clientStats, m map[string]metric) *result {
	return &result{Correct: st.failed == 0 && st.attempted > 0, Attempted: st.attempted, Failed: st.failed, Metrics: m, failures: st.failures}
}

// verify compares every kept reply with its direct computation; a
// mismatch is a failed operation. While tracing, the replays run one at
// a time so each span times one call on an otherwise idle host;
// otherwise they share the host's cores.
func (b *bench) verify(ctx context.Context, st *clientStats, lt *lifetimeReplay) {
	workers := runtime.GOMAXPROCS(0)
	if b.tr.on.Load() {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	outs := make([]*clientStats, workers)
	lts := make([]*lifetimeReplay, workers)
	for w := range outs {
		out, wlt := newClientStats(), &lifetimeReplay{}
		outs[w], lts[w] = out, wlt
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers := map[ruleKey]rulesAnswer{}
			answer := func(k ruleKey) (rulesAnswer, error) {
				if a, ok := answers[k]; ok {
					return a, nil
				}
				a, err := directRules(ctx, k)
				answers[k] = a
				return a, err
			}
			for i := int(next.Add(1) - 1); i < len(st.samples); i = int(next.Add(1) - 1) {
				s := st.samples[i]
				if err := b.check(ctx, s, answer, out, wlt); err != nil {
					out.fail("%s: check %s: %v", b.workload, s.kind, err)
				}
			}
		}()
	}
	wg.Wait()
	for w, out := range outs {
		st.failed += out.failed
		st.failures = append(st.failures, out.failures...)
		st.passes["large"] = append(st.passes["large"], out.passes["large"]...)
		lt.samples += lts[w].samples
		lt.sketchBytes = append(lt.sketchBytes, lts[w].sketchBytes...)
	}
}

func (b *bench) check(ctx context.Context, s sample, answer func(ruleKey) (rulesAnswer, error), st *clientStats, lt *lifetimeReplay) error {
	switch s.kind {
	case "rules":
		a, err := answer(s.key)
		if err != nil {
			return err
		}
		return checkRulesReply(s.key, s.reply.(*server.RulesResponse), a)
	case "batch":
		resp := s.reply.(*server.BatchResponse)
		unique := map[ruleKey]bool{}
		for _, k := range s.keys {
			unique[k] = true
		}
		if resp.Requests != len(s.keys) || resp.Unique != len(unique) || resp.Deduped != len(s.keys)-len(unique) || len(resp.Results) != len(s.keys) {
			return fmt.Errorf("counts requests=%d unique=%d deduped=%d results=%d for %d entries, %d distinct",
				resp.Requests, resp.Unique, resp.Deduped, len(resp.Results), len(s.keys), len(unique))
		}
		for i, k := range s.keys {
			if resp.Results[i].Rules == nil {
				return fmt.Errorf("entry %d: error %+v", i, resp.Results[i].Error)
			}
			a, err := answer(k)
			if err != nil {
				return err
			}
			if err := checkRulesReply(k, resp.Results[i].Rules, a); err != nil {
				return fmt.Errorf("entry %d: %w", i, err)
			}
		}
		return nil
	case "netcheck":
		want, err := directNetcheck(ctx, b.tr, s.design)
		if err != nil {
			return err
		}
		return checkNetcheckReply(s.reply.(*server.NetcheckResponse), want)
	case "chipcheck.medium", "chipcheck.small":
		class := s.kind[len("chipcheck."):]
		want, err := directChipcheck(ctx, b.tr, class, s.params.(chipcheck.Params), b.tr.on.Load() && class == "medium")
		if err != nil {
			return err
		}
		return sameJSON(s.body, want)
	case "lifetime":
		want, err := directLifetime(b.tr, s.params.(lifetime.Params), lt)
		if err != nil {
			return err
		}
		return sameJSON(s.body, want)
	}
	req := s.params.(jobs.SubmitRequest)
	var want any
	var err error
	switch req.Type {
	case jobs.TypeLifetime:
		want, err = directLifetime(b.tr, *req.Lifetime, lt)
	case jobs.TypeChipcheck:
		var res *chipcheck.Result
		res, err = directChipcheck(ctx, b.tr, "large", *req.Chipcheck, b.tr.on.Load())
		if err == nil {
			st.passes["large"] = append(st.passes["large"], float64(res.Summary.Iterations))
		}
		want = res
	case jobs.TypeMonteCarlo:
		want, err = directMonteCarlo(req.MonteCarlo)
	default:
		err = fmt.Errorf("unexpected job type %q", req.Type)
	}
	if err != nil {
		return err
	}
	return sameJSON(s.body, want)
}

// replayKernels times the scalar layers on the traced half's inputs:
// core.SolveCtx over the distinct keys the daemon solved, and
// rules.GenerateLevelCtx over their distinct (node, level) pairs.
func (b *bench) replayKernels(ctx context.Context, st *clientStats) {
	if len(st.missed) == 0 {
		return
	}
	spec, err := rulesSpec()
	if err != nil {
		st.fail("%s: replay: %v", b.workload, err)
		return
	}
	keys := make([]ruleKey, 0, len(st.missed))
	levels := map[ruleKey]bool{}
	for k := range st.missed {
		keys = append(keys, k)
		levels[ruleKey{Node: k.Node, Level: k.Level}] = true
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Duty < keys[j].Duty })
	problems := make([]core.Problem, len(keys))
	for i, k := range keys {
		if problems[i], err = solveProblem(k, spec); err != nil {
			st.fail("%s: replay: %v", b.workload, err)
			return
		}
	}
	if err := b.tr.timed("direct.core.SolveCtx", func() error {
		for _, p := range problems {
			if _, err := core.SolveCtx(ctx, p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		st.fail("%s: replay core.SolveCtx: %v", b.workload, err)
	}
	b.replayedSolves = len(problems)
	for l := range levels {
		if err := b.tr.timed("direct.rules.GenerateLevelCtx", func() error {
			_, err := rules.GenerateLevelCtx(ctx, techFor(l.Node), l.Level, spec)
			return err
		}); err != nil {
			st.fail("%s: replay rules.GenerateLevelCtx: %v", b.workload, err)
		}
	}
}

// counters is what the daemon exports, read between the halves and
// after the traced half.
type counters struct {
	snap    server.Snapshot
	jobs    jobs.Stats
	numeric mathx.NumericStatsSnapshot
	mem     runtime.MemStats
}

func (b *bench) counters(ctx context.Context, d *daemon) (counters, error) {
	var c counters
	if _, err := fetch(ctx, b.clients[0], "metrics", http.MethodGet, "/metrics", nil, &c.snap); err != nil {
		return c, fmt.Errorf("/metrics: %w", err)
	}
	c.jobs = d.jm.Stats()
	c.numeric = mathx.NumericStats()
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// endToEndMetrics are the metrics a user of the daemon sees, in the
// order BENCHMARK.json lists them. The latency slots read a different
// operation per workload (roles).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"second_p50_ms", "ms"},
	{"third_p50_ms", "ms"},
}

// roles maps the latency slots to operations: p50_ms and p90_ms read
// the headline operation, second_p50_ms and third_p50_ms two more.
// "cycle" is one signoff round (chipscale) or one round of the job
// sequence (contended).
var roles = map[string]struct{ head, second, third string }{
	interactive: {"rules", "batch", "netcheck"},
	chipscale:   {"chipcheck.medium", "lifetime", "cycle"},
	contended:   {"rules", "cycle", "job.lifetime"},
}

// counted lists the operations requests_per_s counts; in contended
// only the rules client.
var counted = map[string][]string{
	interactive: {"rules", "batch", "netcheck"},
	chipscale:   {"chipcheck.medium", "chipcheck.small", "lifetime"},
	contended:   {"rules"},
}

func (b *bench) endToEnd(ph *phase, st *clientStats, setup float64) map[string]metric {
	r := roles[b.workload]
	lat := st.lat
	ops := 0
	for _, k := range counted[b.workload] {
		ops += len(st.lat[k])
	}
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"requests_per_s": {float64(ops) / ph.elapsed.Seconds(), "1/s"},
		"peak_heap_mb":   {ph.peakHeap / 1e6, "MB"},
		"p50_ms":         {median(lat[r.head]), "ms"},
		"p90_ms":         {quantile(lat[r.head], 0.9), "ms"},
		"second_p50_ms":  {median(lat[r.second]), "ms"},
		"third_p50_ms":   {median(lat[r.third]), "ms"},
	}
}

// report prints the metrics, one per line, then the failures.
func (b *bench) report(st *clientStats, ph *phase, m map[string]metric) {
	mode := "end-to-end"
	if b.traced {
		mode = "per-layer (traced half)"
	}
	fmt.Fprintf(b.out, "perfbench %s seed=%d window=%.2fs: %s metrics, %d operations, %d failed (failed_share %.4g)\n",
		b.workload, b.seed, ph.elapsed.Seconds(), mode, st.attempted, st.failed, ratio(float64(st.failed), float64(st.attempted)))
	if !b.traced {
		r := roles[b.workload]
		for _, kind := range []string{r.head, r.second, r.third} {
			fmt.Fprintf(b.out, "  %-22s n=%d\n", b.opName(kind)+" samples", len(st.lat[kind]))
		}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "  %-38s %14.6g %s%s\n", k, m[k].Value, m[k].Unit, b.alias(k))
	}
	for _, f := range st.failures {
		fmt.Fprintf(b.out, "  FAILED %s\n", f)
	}
}

// opName names an operation's latency as the workload's users know it.
func (b *bench) opName(kind string) string {
	switch kind {
	case "chipcheck.medium":
		return "chipcheck"
	case "cycle":
		if b.workload == chipscale {
			return "signoff_round"
		}
		return "job_cycle"
	case "job.lifetime":
		return "lifetime_job"
	}
	return kind
}

// alias names what a latency slot reads on this workload.
func (b *bench) alias(name string) string {
	r := roles[b.workload]
	switch name {
	case "p50_ms":
		return "  (" + b.opName(r.head) + "_p50_ms)"
	case "p90_ms":
		return "  (" + b.opName(r.head) + "_p90_ms)"
	case "second_p50_ms":
		return "  (" + b.opName(r.second) + "_p50_ms)"
	case "third_p50_ms":
		return "  (" + b.opName(r.third) + "_p50_ms)"
	}
	return ""
}
