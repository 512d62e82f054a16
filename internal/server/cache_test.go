package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dsmtherm/internal/chipcheck"
)

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Add("a", 1)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("want hit with 1, got %v %v", v, ok)
	}
	c.Add("a", 2) // refresh in place
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("refresh lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}

	// Fill far past capacity: entries stay bounded and evictions tick.
	for i := 0; i < 10*cacheShards; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	if n, cap := c.Len(), c.Capacity(); n > cap {
		t.Errorf("cache holds %d entries over capacity %d", n, cap)
	}
	if c.Stats().Evictions == 0 {
		t.Error("expected evictions after overfill")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Single-shard-sized probe: find two keys in the same shard and
	// verify recency protects the older-but-touched one.
	c := NewCache(2 * cacheShards) // two entries per shard
	shard0 := fnv1a("x0") & (cacheShards - 1)
	var same []string
	for i := 0; len(same) < 3; i++ {
		k := fmt.Sprintf("x%d", i)
		if fnv1a(k)&(cacheShards-1) == shard0 {
			same = append(same, k)
		}
	}
	c.Add(same[0], 0)
	c.Add(same[1], 1)
	c.Get(same[0]) // promote oldest
	c.Add(same[2], 2)
	if _, ok := c.Get(same[0]); !ok {
		t.Error("recently-used entry evicted")
	}
	if _, ok := c.Get(same[1]); ok {
		t.Error("least-recently-used entry survived")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must miss")
	}
	if c.Capacity() != 0 || c.Len() != 0 {
		t.Fatal("disabled cache must be empty")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%400)
				if v, ok := c.Get(k); ok {
					if v.(string) != k {
						t.Errorf("key %s holds %v", k, v)
						return
					}
				} else {
					c.Add(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n, cap := c.Len(), c.Capacity(); n > cap {
		t.Errorf("cache holds %d entries over capacity %d", n, cap)
	}
}

// sameShardKeys returns n distinct keys that all hash to one shard, so
// a test can drive a single LRU list deterministically.
func sameShardKeys(prefix string, n int) []string {
	target := fnv1a(prefix+"0") & (cacheShards - 1)
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if fnv1a(k)&(cacheShards-1) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheEvictionCountExact pins eviction accounting: overfilling one
// shard by k entries reports exactly k evictions — refreshes of
// resident keys are free, and no phantom evictions appear.
func TestCacheEvictionCountExact(t *testing.T) {
	cases := []struct {
		name     string
		perShard int
		adds     int
	}{
		{"atCapacity", 4, 4},
		{"overByOne", 1, 2},
		{"overByMany", 2, 9},
		{"wayOver", 4, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.perShard * cacheShards)
			keys := sameShardKeys("ev", tc.adds)
			for _, k := range keys {
				c.Add(k, k)
			}
			want := uint64(0)
			if tc.adds > tc.perShard {
				want = uint64(tc.adds - tc.perShard)
			}
			if got := c.Stats().Evictions; got != want {
				t.Fatalf("Evictions after %d adds into cap %d = %d, want exactly %d",
					tc.adds, tc.perShard, got, want)
			}
			// Refreshing every resident key moves nothing out: the
			// eviction count must not drift.
			for _, k := range keys[len(keys)-min(tc.perShard, tc.adds):] {
				c.Add(k, "refreshed")
			}
			if got := c.Stats().Evictions; got != want {
				t.Errorf("Evictions after refreshes = %d, want still %d", got, want)
			}
		})
	}
}

// TestQuarantinePressureSparesCache pins that the server's three
// stores share an LRU but no bound: a flood of distinct poisoned keys
// can never push results out, operator churn evicts no result, and a
// flood of results evicts no operator.
func TestQuarantinePressureSparesCache(t *testing.T) {
	const qBound = 32
	s := New(Config{Workers: 2, CacheEntries: 4 * cacheShards, QuarantineEntries: qBound})
	cache, q := s.cache, s.quarantine

	// A healthy working set fills the cache.
	var resident []string
	for i := 0; i < 2*cacheShards; i++ {
		k := fmt.Sprintf("good-%d", i)
		cache.Add(k, i)
		resident = append(resident, k)
	}
	baseLen := cache.Len()
	baseEvicts := cache.Stats().Evictions
	spared := func(what string) {
		t.Helper()
		if got := cache.Len(); got != baseLen {
			t.Errorf("cache length moved under %s: %d -> %d", what, baseLen, got)
		}
		if got := cache.Stats().Evictions; got != baseEvicts {
			t.Errorf("%s evicted from the result cache: %d -> %d", what, baseEvicts, got)
		}
		for _, k := range resident {
			if _, _, ok := cache.lookup(k); !ok {
				t.Fatalf("positive result %s evicted by %s", k, what)
			}
		}
	}

	// A flood of distinct failing keys — 100× the quarantine bound.
	for i := 0; i < 100*qBound; i++ {
		q.RecordFailure(fmt.Sprintf("poison-%d", i))
	}
	if got := q.Tracked(); got > qBound {
		t.Errorf("quarantine tracked %d records, bound %d", got, qBound)
	}
	spared("quarantine pressure")

	// Operator churn: six geometries through a store that holds two.
	var checks []*chipcheck.Check
	for i := 0; i < 6; i++ {
		p := chipParams()
		p.Nx = 10 + i
		c, err := chipcheck.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		checks = append(checks, c)
	}
	big, err := checks[5].NewOperator()
	if err != nil {
		t.Fatal(err)
	}
	s.operators = newStore(1, 2*big.Bytes(), operatorCost)
	for _, c := range checks {
		if _, err := s.operator(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	if s.operators.Len() != 2 {
		t.Fatalf("the operator store keeps %d operators, want 2", s.operators.Len())
	}
	spared("operator churn")

	// A flood of results — 10× the cache's capacity — evicts no operator.
	kept := s.operators.Cost()
	for i := 0; i < 10*cache.Capacity(); i++ {
		cache.Add(fmt.Sprintf("flood-%d", i), i)
	}
	if got := s.operators.Cost(); got != kept {
		t.Errorf("a result flood moved the operator store from %d to %d bytes", kept, got)
	}
	for _, c := range checks[4:] {
		if _, _, ok := s.operators.lookup(operatorKey(c)); !ok {
			t.Errorf("operator of a %d-wide grid evicted by a result flood", c.Grid.Nx)
		}
	}
}
