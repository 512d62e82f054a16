package main

import (
	"dsmtherm/internal/jobs"
)

// Per-layer metrics of the traced run. Layers are the module names;
// every figure is measured from outside the daemon: spans around
// Handler().ServeHTTP and around direct calls into each module's public
// functions, gauges the server exposes, and the counters it exports on
// /metrics, jobs.Manager.Stats, mathx.NumericStats and /proc/self/io. A
// layer the workload does not exercise reads 0.

// routes are the HTTP routes the workloads use, by route name.
var routes = []string{"rules", "batch", "netcheck", "chipcheck", "lifetime", "jobs"}

// routeKind is the operation kind a route's per-layer figures read:
// /v1/chipcheck reads the medium grid, the one chipcheck_p50_ms reads.
func routeKind(route string) string {
	if route == "chipcheck" {
		return "chipcheck.medium"
	}
	return route
}

// gatedKinds are the operation kinds that pass the admission gate.
var gatedKinds = []string{"rules", "batch", "netcheck", "chipcheck.medium", "chipcheck.small", "lifetime"}

var (
	gridClasses = []string{"small", "medium", "large"}
	jobTypes    = []string{jobs.TypeLifetime, jobs.TypeChipcheck, jobs.TypeMonteCarlo}
)

// perLayerMetrics lists the per-layer metrics in the order
// BENCHMARK.json lists them.
func perLayerMetrics() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, r := range routes {
		add("server.handler_ms."+r, "ms")
	}
	for _, r := range routes {
		add("server.outside_handler_ms."+r, "ms")
	}
	for _, r := range routes {
		add("server.response_kb."+r, "KB")
	}
	add("server.admission_wait_ms", "ms")
	add("server.pool_busy", "ratio")
	add("server.rejected", "count")
	add("server.solve_hit_ratio", "ratio")
	add("server.deck_hit_ratio", "ratio")
	add("server.coalesced", "count")
	add("server.cache_evictions", "count")
	add("server.batch_dedup_ratio", "ratio")
	add("server.rules_p99_ms", "ms")
	add("core.solves", "count")
	add("core.solve_us", "us")
	add("rules.decks_built", "count")
	add("rules.level_ms", "ms")
	add("netcheck.segment_us", "us")
	add("chipcheck.compile_ms", "ms")
	for _, c := range gridClasses {
		add("chipcheck.solve_ms."+c, "ms")
	}
	add("chipcheck.verdicts_ms", "ms")
	add("chipcheck.report_ms", "ms")
	for _, c := range gridClasses {
		add("chipcheck.passes."+c, "count")
	}
	add("powergrid.setup_ms", "ms")
	add("powergrid.solve_ms", "ms")
	add("fdm.sheet_setup_ms", "ms")
	add("fdm.sheet_solve_ms", "ms")
	add("mathx.fallback_solves", "count")
	add("mathx.numeric_failures", "count")
	add("mathx.sketch_merge_us", "us")
	add("mathx.sketch_kb", "KB")
	add("lifetime.samples_per_s", "1/s")
	add("lifetime.report_ms", "ms")
	add("jobs.queue_wait_ms", "ms")
	for _, t := range jobTypes {
		add("jobs.run_s."+t, "s")
	}
	for _, t := range jobTypes {
		add("jobs.chunks_per_s."+t, "1/s")
	}
	for _, t := range jobTypes {
		add("jobs.write_mb."+t, "MB")
	}
	add("jobs.checkpoints", "count")
	add("jobs.chunk_retries", "count")
	add("jobs.checkpoint_errors", "count")
	add("runtime.gc_cycles", "count")
	add("runtime.alloc_mb", "MB")
	add("runtime.gc_pause_ms", "ms")
	for _, e := range endToEndMetrics {
		if e.name != "setup_s" {
			add("trace_overhead."+e.name, e.unit)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// perLayer computes the per-layer metrics: spans, gauges and replays
// of the traced half, counter deltas across it, and the rules p99 of
// the untraced half.
func (b *bench) perLayer(traced *phase, ps, ts *clientStats, before, after counters, lt *lifetimeReplay) map[string]metric {
	ix := indexSpans(b.tr.snapshot())
	d := ix.durations
	m := map[string]metric{}
	units := map[string]string{}
	for _, pm := range perLayerMetrics() {
		units[pm.name] = pm.unit
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }

	gated := 0.0
	for _, k := range gatedKinds {
		gated += float64(len(ix.byName["client."+k]))
	}
	for _, r := range routes {
		handler, outside := ix.handlerAndOutside(routeKind(r))
		set("server.handler_ms."+r, median(handler))
		set("server.outside_handler_ms."+r, median(outside))
		set("server.response_kb."+r, mean(b.tr.bytes[routeKind(r)])/1e3)
	}
	// Little's law: mean queue length over the gated arrival rate.
	set("server.admission_wait_ms", 1e3*ratio(mean(traced.waiting), gated/traced.elapsed.Seconds()))
	set("server.pool_busy", mean(traced.busy))

	delta := func(f func(c counters) uint64) float64 { return float64(f(after) - f(before)) }
	solves := delta(func(c counters) uint64 { return c.snap.Solver.Solves })
	hits := delta(func(c counters) uint64 { return c.snap.Solver.CacheHits })
	decks := delta(func(c counters) uint64 { return c.snap.Solver.DecksBuilt })
	deckHits := delta(func(c counters) uint64 { return c.snap.Solver.DeckCacheHit })
	set("server.rejected", delta(func(c counters) uint64 {
		return c.snap.Admission.RejectedQueueFull + c.snap.Admission.RejectedQueueWait + c.snap.Admission.RejectedDraining
	}))
	set("server.solve_hit_ratio", ratio(hits, hits+solves))
	set("server.deck_hit_ratio", ratio(deckHits, deckHits+decks))
	set("server.coalesced", delta(func(c counters) uint64 { return c.snap.Cache.Coalesced }))
	set("server.cache_evictions", delta(func(c counters) uint64 { return c.snap.Cache.Evictions }))
	set("server.batch_dedup_ratio", ratio(ts.deduped, ts.batchReqs))
	set("server.rules_p99_ms", quantile(ps.lat["rules"], 0.99))

	set("core.solves", solves)
	set("core.solve_us", 1e3*ratio(sum(d("direct.core.SolveCtx")), float64(b.replayedSolves)))
	set("rules.decks_built", decks)
	set("rules.level_ms", median(d("direct.rules.GenerateLevelCtx")))
	set("netcheck.segment_us", 1e3*ratio(sum(d("direct.netcheck.CheckWith")), float64(netcheckSegments*len(ix.byName["direct.netcheck.CheckWith"]))))

	set("chipcheck.compile_ms", median(d("direct.chipcheck.Compile")))
	for _, c := range gridClasses {
		set("chipcheck.solve_ms."+c, median(d("direct.chipcheck.Solve."+c)))
		set("chipcheck.passes."+c, median(ts.passes[c]))
	}
	set("chipcheck.verdicts_ms", median(d("direct.chipcheck.Verdicts")))
	set("chipcheck.report_ms", median(d("direct.chipcheck.Report")))
	set("powergrid.setup_ms", median(d("direct.powergrid.NewNodal")))
	set("powergrid.solve_ms", median(d("direct.powergrid.SolveInto")))
	set("fdm.sheet_setup_ms", median(d("direct.fdm.NewSheetSolver")))
	set("fdm.sheet_solve_ms", median(d("direct.fdm.SheetSolver.Solve")))

	set("mathx.fallback_solves", float64(after.numeric.FallbackSolves-before.numeric.FallbackSolves))
	set("mathx.numeric_failures", float64(after.numeric.NumericFailures-before.numeric.NumericFailures))
	set("mathx.sketch_merge_us", 1e3*median(d("direct.mathx.QuantileSketch.Merge")))
	set("mathx.sketch_kb", mean(lt.sketchBytes)/1e3)
	set("lifetime.samples_per_s", ratio(float64(lt.samples), sum(d("direct.lifetime.SampleRange"))/1e3))
	set("lifetime.report_ms", median(d("direct.lifetime.BuildReport")))

	var wait []float64
	run := map[string][]float64{}
	rate := map[string][]float64{}
	write := map[string][]float64{}
	for _, j := range traced.jobs {
		wait = append(wait, float64(j.queueWait)/1e6)
		run[j.typ] = append(run[j.typ], j.run.Seconds())
		rate[j.typ] = append(rate[j.typ], float64(j.chunks)/j.run.Seconds())
		write[j.typ] = append(write[j.typ], j.writeMB)
	}
	set("jobs.queue_wait_ms", median(wait))
	for _, t := range jobTypes {
		set("jobs.run_s."+t, median(run[t]))
		set("jobs.chunks_per_s."+t, median(rate[t]))
		set("jobs.write_mb."+t, median(write[t]))
	}
	set("jobs.checkpoints", delta(func(c counters) uint64 { return c.jobs.Checkpoints }))
	set("jobs.chunk_retries", delta(func(c counters) uint64 { return c.jobs.ChunkRetries }))
	set("jobs.checkpoint_errors", delta(func(c counters) uint64 { return c.jobs.CheckpointErrors }))

	set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	set("runtime.alloc_mb", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6)
	set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	return m
}
