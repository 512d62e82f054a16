package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dsmtherm/internal/faultinject"
)

// Cache is a sharded, cost-bounded LRU store. The result cache is one,
// keyed on canonicalized solve inputs: deck generation and core.Solve
// are deterministic functions of their inputs, so a hit can skip the
// nonlinear solve (or a whole deck build) entirely; sharding keeps lock
// contention off the serving path when many requests land on different
// keys at once. The chipcheck operator store is another, one shard
// charged each operator's bytes.
type Cache struct {
	shards []*cacheShard
	// cost charges a value against its shard's budget; nil charges 1.
	cost   func(val any) int
	hits   atomic.Uint64
	misses atomic.Uint64
	evicts atomic.Uint64
}

// cacheShards is the result cache's shard count; a power of two so the
// hash can mask instead of mod.
const cacheShards = 16

type cacheShard struct {
	mu      sync.Mutex
	entries lru[cacheEntry]
}

type cacheEntry struct {
	val any
	// at is when the value was stored (insert or refresh). The breaker's
	// stale-while-revalidate policy uses it to mark hits served past the
	// freshness horizon while the solver path is degraded.
	at time.Time
}

// NewCache builds a result cache bounded to capacity entries in total
// (rounded up to the shard count). capacity <= 0 disables caching: Get
// always misses and Add drops.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	return newStore(cacheShards, (capacity+cacheShards-1)/cacheShards, nil)
}

// newStore builds a store of shards (a power of two) LRUs, each with
// its own budget, charging values by cost (nil charges 1).
func newStore(shards, budget int, cost func(val any) int) *Cache {
	c := &Cache{shards: make([]*cacheShard, shards), cost: cost}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: newLRU(budget, func(cacheEntry) { c.evicts.Add(1) })}
	}
	return c
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep key → shard routing
// allocation-free.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache) shard(key string) *cacheShard {
	return c.shards[fnv1a(key)&uint64(len(c.shards)-1)]
}

// Get returns the cached value for key, promoting it to most-recent.
func (c *Cache) Get(key string) (any, bool) {
	v, _, ok := c.GetAt(key)
	return v, ok
}

// GetAt is Get plus the time the value was stored, so callers can apply
// a freshness policy (the breaker's stale marking) to hits.
func (c *Cache) GetAt(key string) (any, time.Time, bool) {
	v, at, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, at, ok
}

// lookup is GetAt without the hit and miss counters, for a second look
// on behalf of a request whose first look already counted.
func (c *Cache) lookup(key string) (any, time.Time, bool) {
	if len(c.shards) == 0 {
		return nil, time.Time{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fault-injection site inside the shard critical section: a stalling
	// hook here makes every Get/Add on this shard queue behind us, which
	// is how the chaos suite manufactures cache-shard contention.
	_ = faultinject.Inject(context.Background(), faultinject.SiteCacheShard)
	e, ok := s.entries.get(key)
	if !ok {
		return nil, time.Time{}, false
	}
	return e.val.val, e.val.at, true
}

// Add inserts (or refreshes) a key, evicting the least-recent entries
// of the key's shard until its charge fits the shard's budget. A value
// that alone costs more than the budget is not kept.
func (c *Cache) Add(key string, val any) {
	if len(c.shards) == 0 {
		return
	}
	cost := 1
	if c.cost != nil {
		cost = c.cost(val)
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries.add(key, cacheEntry{val: val, at: time.Now()}, cost)
}

// Range calls fn for every entry, holding one shard's lock at a time;
// fn must be fast and must not call back into the cache. Returning
// false stops the walk. The snapshotter uses it to collect the working
// set.
func (c *Cache) Range(fn func(key string, val any) bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.entries.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*lruEntry[cacheEntry])
			if !fn(e.key, e.val.val) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// sum adds f over the shards, each read under its lock.
func (c *Cache) sum(f func(l *lru[cacheEntry]) int) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += f(&s.entries)
		s.mu.Unlock()
	}
	return n
}

// Len returns the total entry count across shards.
func (c *Cache) Len() int { return c.sum(func(l *lru[cacheEntry]) int { return l.ll.Len() }) }

// Capacity returns the total budget (0 when disabled).
func (c *Cache) Capacity() int { return c.sum(func(l *lru[cacheEntry]) int { return l.budget }) }

// Cost returns the total charge of the entries kept.
func (c *Cache) Cost() int { return c.sum(func(l *lru[cacheEntry]) int { return l.cost }) }

// clear empties every shard.
func (c *Cache) clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries.clear()
		s.mu.Unlock()
	}
}

// CacheStats is the cache section of the /metrics document. The flight
// fields come from the request coalescer that sits under the cache:
// Flights counts computations actually led on a miss, Coalesced counts
// requests answered by another request's in-flight computation, and the
// two gauges (active flights, blocked waiters) drain to zero at
// quiescence.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Coalesced     uint64 `json:"coalesced"`
	Flights       uint64 `json:"flights"`
	FlightsActive int    `json:"flightsActive"`
	FlightWaiters int64  `json:"flightWaiters"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
		Entries:   c.Len(),
		Capacity:  c.Capacity(),
	}
}
