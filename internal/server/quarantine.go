package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// Quarantine is the bounded negative cache over canonical solve, deck
// and chipcheck geometry keys: failure memory for the daemon. A key
// whose compute panics or fails non-deterministically (anything
// failureClass recognizes — core.ErrNoSolution and validation errors
// are valid, cacheable answers and never count) repeatedly within a
// window is embargoed for a TTL, and requests for it are answered with
// an immediate structured 422 ("quarantined") + Retry-After instead of
// burning a pool slot on a solve that keeps blowing up.
//
// The records sit on the package's one LRU type, bounded independently
// of the result cache: poison keys must never evict healthy solve
// results, and a flood of distinct failing keys must never grow the
// failure memory without bound (the least recently touched record is
// dropped instead — forgetting a poison key early costs at most one
// more failure round, never correctness).
//
// Check's fast path is one atomic load: with no key currently
// quarantined, nothing on the serving path takes the lock.
type Quarantine struct {
	threshold int           // failures within window to quarantine; <= 0 disables
	window    time.Duration // failure-counting window
	ttl       time.Duration // embargo length once quarantined

	// active gauges keys currently embargoed; it gates Check's fast
	// path. tracked gauges failure records (embargoed or not) and gates
	// RecordSuccess.
	active  atomic.Int64
	tracked atomic.Int64

	mu      sync.Mutex
	records lru[quarantineRecord] // each charged 1 against maxEntries

	quarantined atomic.Uint64 // keys embargoed (monotonic)
	hits        atomic.Uint64 // requests rejected by an active embargo
	released    atomic.Uint64 // embargoes expired or cleared by a success
}

type quarantineRecord struct {
	failures  int
	firstFail time.Time // window start
	until     time.Time // zero while tracked-but-not-embargoed
}

// NewQuarantine builds a quarantine. threshold <= 0 disables it (Check
// and Record become no-ops); maxEntries < 1 is raised to 1.
func NewQuarantine(threshold int, window, ttl time.Duration, maxEntries int) *Quarantine {
	q := &Quarantine{threshold: threshold, window: window, ttl: ttl}
	q.records = newLRU(max(maxEntries, 1), q.forget)
	return q
}

func (q *Quarantine) disabled() bool { return q == nil || q.threshold <= 0 }

// Check reports whether key is currently embargoed and, if so, how long
// until the embargo lifts (the Retry-After hint). An expired embargo is
// released on the spot.
func (q *Quarantine) Check(key string) (retryAfter time.Duration, quarantined bool) {
	if q.disabled() || q.active.Load() == 0 {
		return 0, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.records.get(key)
	if !ok || e.val.until.IsZero() {
		return 0, false
	}
	if rem := time.Until(e.val.until); rem > 0 {
		q.hits.Add(1)
		return rem, true
	}
	// TTL elapsed: release, dropping the failure record entirely so the
	// key re-earns quarantine from a clean window if it is still poison.
	q.release(key, e.val)
	return 0, false
}

// RecordFailure counts one quarantine-eligible failure against key and
// reports whether the key just became embargoed.
func (q *Quarantine) RecordFailure(key string) (quarantined bool) {
	if q.disabled() {
		return false
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.records.get(key)
	if !ok {
		e = q.records.add(key, quarantineRecord{firstFail: now}, 1)
		q.tracked.Add(1)
	}
	r := &e.val
	if !r.until.IsZero() {
		return false // already embargoed (a straggler solve finished late)
	}
	if now.Sub(r.firstFail) > q.window {
		r.failures, r.firstFail = 0, now // stale window: restart the count
	}
	r.failures++
	if r.failures < q.threshold {
		return false
	}
	r.until = now.Add(q.ttl)
	q.active.Add(1)
	q.quarantined.Add(1)
	return true
}

// RecordSuccess clears key's failure record: a successful (or
// deterministically-answered) compute proves the key is not poison. A
// success can land on an embargoed key when a solve that started before
// the embargo finishes after it; that releases the embargo early.
func (q *Quarantine) RecordSuccess(key string) {
	if q.disabled() || q.tracked.Load() == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if e, ok := q.records.get(key); ok {
		q.release(key, e.val)
	}
}

// release drops key's record r, counting a lifted embargo. Callers
// hold q.mu.
func (q *Quarantine) release(key string, r quarantineRecord) {
	if !r.until.IsZero() {
		q.released.Add(1)
	}
	q.records.drop(key)
	q.forget(r)
}

// forget maintains the gauges for a record leaving the store, released
// or evicted by the bound. Callers hold q.mu.
func (q *Quarantine) forget(r quarantineRecord) {
	if !r.until.IsZero() {
		q.active.Add(-1)
	}
	q.tracked.Add(-1)
}

// Active returns the number of keys currently embargoed.
func (q *Quarantine) Active() int64 {
	if q == nil {
		return 0
	}
	return q.active.Load()
}

// Tracked returns the number of failure records currently held.
func (q *Quarantine) Tracked() int64 {
	if q == nil {
		return 0
	}
	return q.tracked.Load()
}

// Quarantined returns the monotonic count of keys embargoed.
func (q *Quarantine) Quarantined() uint64 {
	if q == nil {
		return 0
	}
	return q.quarantined.Load()
}

// Hits returns the monotonic count of requests rejected by an embargo.
func (q *Quarantine) Hits() uint64 {
	if q == nil {
		return 0
	}
	return q.hits.Load()
}

// Released returns the monotonic count of embargoes lifted (TTL expiry
// or a late success).
func (q *Quarantine) Released() uint64 {
	if q == nil {
		return 0
	}
	return q.released.Load()
}
