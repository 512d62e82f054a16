// Package faultinject provides named fault-injection sites for tests.
//
// Production code calls Inject (or drops through a helper like a stall
// hook) at well-known sites — solver iterations, cache shards, netcheck
// segments — and tests register hooks at those sites to provoke the
// failure modes a long-running signoff daemon must survive: solver
// stalls, cache-shard contention, transient per-segment errors.
//
// The package is hook-gated rather than build-tag-gated so the exact
// binary under test is the binary that ships: with no hooks registered,
// Inject is a single atomic load and a nil return. Registration is meant
// for tests only; hooks are global to the process, so tests that install
// them must remove them (use the cancel func returned by Set, typically
// via t.Cleanup) and must not run in parallel with tests that rely on a
// clean registry at the same site.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Site names. Constants rather than free strings so tests and injection
// points cannot drift apart silently.
const (
	// SiteCoreSolve fires once at the top of every core solve
	// (core.SolveCoeffCtx); an error hook makes solves fail transiently.
	SiteCoreSolve = "core.solve"
	// SiteCoreSolveIter fires on every evaluation of the Eq. 13
	// residual inside the bisection/Brent loop; a stall hook here
	// simulates a slow or hung solver iteration.
	SiteCoreSolveIter = "core.solve.iter"
	// SiteRulesLevel fires before each metallization level of a deck
	// generation (rules.GenerateCtx / GenerateLevelCtx).
	SiteRulesLevel = "rules.level"
	// SiteNetcheckSegment fires at the top of every per-segment check;
	// an error hook simulates transient segment-check failures.
	SiteNetcheckSegment = "netcheck.segment"
	// SiteCacheShard fires inside the server cache's shard critical
	// section on Get; a sleep hook here manufactures shard contention.
	SiteCacheShard = "server.cache.shard"
	// SiteServerFlight fires on the leader path of every flight in the
	// serving layer's request coalescer (cache misses only), with the
	// leader's request context and — when hooks are registered — the
	// flight's canonical cache key attached as metadata (Meta). A stall
	// hook holds a flight open so tests can pile waiters onto it (then
	// cancel the leader to drive the re-arm/promotion path); an error
	// hook fails the flight for every participant; a PanicOnMeta hook
	// poisons one key while the rest of the traffic stays healthy.
	SiteServerFlight = "server.flight"
	// SiteJobsStep fires before every job chunk execution in the job
	// subsystem's worker lane, with the job's run context and — when
	// hooks are registered — "id:chunk" attached as metadata. An error
	// hook fails the job deterministically; a stall hook holds a job
	// mid-run so tests can cancel or crash it at a known chunk boundary.
	SiteJobsStep = "jobs.step"
	// SiteJobsCheckpoint fires before every journal checkpoint write
	// (same metadata as SiteJobsStep). An error hook makes the
	// checkpoint skip its write (progress is lost on crash but the job
	// still completes); a stall hook pins a job at a known persisted
	// state so crash-resume tests can kill it with an exact
	// completed-chunk bitmap on disk.
	SiteJobsCheckpoint = "jobs.checkpoint"
	// SiteJobsChunkRetry fires when the chunk supervisor schedules a
	// retry of a transiently failed chunk, before the backoff wait, with
	// "id:chunk" metadata. An error hook aborts the retry — the chunk is
	// quarantined immediately, as if its retries were exhausted.
	SiteJobsChunkRetry = "jobs.chunk.retry"
	// SiteJobsJournalWrite fires inside every journal write, before the
	// bytes reach disk, with the job id as metadata. An error hook
	// simulates a write failure (ENOSPC, dead disk): the manager
	// degrades checkpointing to in-memory and re-probes periodically.
	SiteJobsJournalWrite = "jobs.journal.write"
	// SiteMathxSolve fires at the top of every mathx.SPD ladder solve
	// (fdm steady, sheet and transient solves; the power-grid IR drop),
	// with a background context. An error hook skips the ladder's
	// primary rung — the banded-Cholesky direct solve when the ladder
	// has one, IC(0) CG otherwise — so tests can walk the fallback
	// ladder (direct → IC(0) CG → Jacobi CG) on systems that would
	// otherwise solve cleanly.
	SiteMathxSolve = "mathx.solve.numeric"
)

// Hook is the injected behavior at a site. A hook may block (a stall),
// sleep (contention), or return an error (transient failure). Hooks
// receive the context of the operation they interrupt and should respect
// its cancellation; at sites whose return value is discarded (documented
// on the site constant's injection point), only the blocking behavior
// matters.
type Hook func(ctx context.Context) error

type entry struct {
	h   Hook
	gen uint64
}

var (
	// registered gates the fast path: zero means Inject returns
	// immediately without touching the mutex or map.
	registered atomic.Int32

	mu    sync.RWMutex
	hooks map[string]entry
	gen   uint64

	counts sync.Map // site -> *atomic.Uint64
)

// Set installs hook at site, replacing any previous hook there, and
// returns a cancel func that removes it. The cancel func is
// generation-aware: cancelling a registration that has since been
// replaced is a no-op, so deferred cleanups cannot clear a newer hook.
// Passing a nil hook clears the site immediately.
func Set(site string, hook Hook) (cancel func()) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[string]entry)
	}
	if _, ok := hooks[site]; ok {
		registered.Add(-1)
		delete(hooks, site)
	}
	if hook == nil {
		return func() {}
	}
	gen++
	g := gen
	hooks[site] = entry{h: hook, gen: g}
	registered.Add(1)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if e, ok := hooks[site]; ok && e.gen == g {
			registered.Add(-1)
			delete(hooks, site)
		}
	}
}

// Active reports whether any hook is registered anywhere. Injection
// points that pay a setup cost before calling Inject (e.g. attaching
// metadata to the context) gate that work on Active so the
// no-hooks-registered fast path stays allocation-free.
func Active() bool { return registered.Load() != 0 }

// metaKey carries site metadata through the context (see WithMeta).
type metaKey struct{}

// WithMeta attaches site-specific metadata — typically the canonical
// cache key of the operation being interrupted — to ctx, so hooks can
// target one key (poison it) while leaving the rest of the traffic
// healthy. Injection points should only attach metadata when Active()
// reports hooks are registered.
func WithMeta(ctx context.Context, meta string) context.Context {
	return context.WithValue(ctx, metaKey{}, meta)
}

// Meta returns the metadata attached by WithMeta, or "" when none.
func Meta(ctx context.Context) string {
	m, _ := ctx.Value(metaKey{}).(string)
	return m
}

// Inject runs the hook registered at site, if any, and returns its
// error. With no hooks registered anywhere it costs one atomic load.
func Inject(ctx context.Context, site string) error {
	if registered.Load() == 0 {
		return nil
	}
	mu.RLock()
	h := hooks[site].h
	mu.RUnlock()
	if h == nil {
		return nil
	}
	c, _ := counts.LoadOrStore(site, new(atomic.Uint64))
	c.(*atomic.Uint64).Add(1)
	return h(ctx)
}

// Count reports how many times the hook at site has fired since process
// start (across Set/remove cycles). Tests use it to assert a site was
// actually exercised.
func Count(site string) uint64 {
	c, ok := counts.Load(site)
	if !ok {
		return 0
	}
	return c.(*atomic.Uint64).Load()
}

// Stall returns a hook that blocks until release is closed or the
// operation's context ends, returning the context's error in the latter
// case. It is the canonical "hung solver" injection.
func Stall(release <-chan struct{}) Hook {
	return func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Sleep returns a hook that sleeps d per firing (cut short by context
// cancellation). It is the canonical slow-iteration / contention
// injection.
func Sleep(d time.Duration) Hook {
	return func(ctx context.Context) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ErrEvery returns a hook failing deterministically on every nth firing
// (1-based: n == 1 fails always), the canonical transient error.
func ErrEvery(n int, err error) Hook {
	if n < 1 {
		n = 1
	}
	var calls atomic.Uint64
	return func(context.Context) error {
		if calls.Add(1)%uint64(n) == 0 {
			return err
		}
		return nil
	}
}

// Panic returns a hook that panics with v on every firing — the
// canonical "solver blew up" injection for panic-isolation tests. Pair
// it with PanicOnMeta (or a hand-written Meta predicate) to poison one
// key while the rest of the traffic stays healthy.
func Panic(v any) Hook {
	return func(context.Context) error { panic(v) }
}

// PanicOnMeta returns a hook that panics with v only when the site
// metadata (see WithMeta) satisfies pred; other firings are no-ops. It
// is the canonical poison-key injection: the serving layer attaches the
// canonical cache key as metadata, so pred can single out one key.
func PanicOnMeta(pred func(meta string) bool, v any) Hook {
	return func(ctx context.Context) error {
		if pred(Meta(ctx)) {
			panic(v)
		}
		return nil
	}
}

// FailFirst returns a hook failing only its first n firings — transient
// errors that clear up, for retry/degradation tests.
func FailFirst(n int, err error) Hook {
	var calls atomic.Uint64
	return func(context.Context) error {
		if calls.Add(1) <= uint64(n) {
			return err
		}
		return nil
	}
}
