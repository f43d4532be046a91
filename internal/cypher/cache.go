package cypher

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// variantCache holds the compiled variants of one prepared artifact — a
// statement's plans, a standalone expression's closures — one per binding
// shape and executing store. Lookups are lock-free over a copy-on-write map;
// a missing variant, or one whose statistics have drifted, is compiled under
// the lock.
type variantCache[V any] struct {
	m  atomic.Pointer[map[variantKey]cachedVariant[V]]
	mu sync.Mutex
}

// variantKey addresses one compiled variant: the sorted binding-name shape
// joined with \x1f, plus the identity of the store the variant was costed
// against.
type variantKey struct {
	shape string
	store *graph.Store
}

// cachedVariant stamps a variant with the statistics it was costed on.
type cachedVariant[V any] struct {
	v    V
	snap *statsSnapshot
}

// get returns the variant for bindNames on tx's store, calling compile —
// which records the statistics it consults in the snapshot it is handed —
// when there is none or it is stale.
func (c *variantCache[V]) get(tx *graph.Tx, bindNames []string, compile func(*statsSnapshot) (V, error)) (V, error) {
	key := variantKey{shape: strings.Join(bindNames, "\x1f"), store: tx.Store()}
	if v, ok := c.lookup(key, tx); ok {
		return v, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookup(key, tx); ok {
		return v, nil
	}
	snap := newStatsSnapshot()
	v, err := compile(snap)
	if err != nil {
		return v, err
	}
	next := make(map[variantKey]cachedVariant[V], c.len()+1)
	if old := c.m.Load(); old != nil {
		for k, ov := range *old {
			next[k] = ov
		}
	}
	next[key] = cachedVariant[V]{v: v, snap: snap}
	c.m.Store(&next)
	return v, nil
}

func (c *variantCache[V]) lookup(key variantKey, tx *graph.Tx) (V, bool) {
	if m := c.m.Load(); m != nil {
		if e, ok := (*m)[key]; ok && !e.snap.stale(tx) {
			return e.v, true
		}
	}
	var zero V
	return zero, false
}

// len reports how many variants the cache holds.
func (c *variantCache[V]) len() int {
	if m := c.m.Load(); m != nil {
		return len(*m)
	}
	return 0
}

const cacheShards = 16

// cacheEntry pairs a prepared plan with its last-touched generation for
// approximate LRU eviction.
type cacheEntry struct {
	plan *Plan
	gen  atomic.Int64
}

type cacheShard struct {
	m  atomic.Pointer[map[string]*cacheEntry] // copy-on-write; readers never lock
	mu sync.Mutex                             // serializes writers
}

// PlanCache is a sharded, lock-free-on-read cache from query text to
// prepared Plans. Hits touch only two atomics, so concurrent lookups from
// many event-processing goroutines never contend; insertions copy the
// shard's map under its writer lock. Eviction is approximate LRU by touch
// generation, per shard.
type PlanCache struct {
	shards   [cacheShards]cacheShard
	perShard int
	gen      atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mEvictions *metrics.Counter
}

// NewPlanCache returns a cache holding roughly capacity plans (split across
// shards). capacity <= 0 selects the default of 1024.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 1024
	}
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &PlanCache{perShard: per}
	for i := range c.shards {
		empty := make(map[string]*cacheEntry)
		c.shards[i].m.Store(&empty)
	}
	return c
}

// SetMetrics mirrors hit/miss/eviction counts into the given counters
// (rkm_cypher_plan_cache_*). Nil counters are no-ops.
func (c *PlanCache) SetMetrics(hits, misses, evictions *metrics.Counter) {
	c.mHits, c.mMisses, c.mEvictions = hits, misses, evictions
}

func cacheHash(s string) uint32 {
	// FNV-1a.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Get returns the prepared Plan for query, parsing it on first sight.
// Parse errors are returned and not cached.
func (c *PlanCache) Get(query string) (*Plan, error) {
	sh := &c.shards[cacheHash(query)%cacheShards]
	if e, ok := (*sh.m.Load())[query]; ok {
		e.gen.Store(c.gen.Add(1))
		c.hits.Add(1)
		c.mHits.Inc()
		return e.plan, nil
	}
	c.misses.Add(1)
	c.mMisses.Inc()
	plan, err := Prepare(query)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := *sh.m.Load()
	if e, ok := old[query]; ok {
		// Another writer inserted it while we parsed.
		e.gen.Store(c.gen.Add(1))
		return e.plan, nil
	}
	next := make(map[string]*cacheEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	e := &cacheEntry{plan: plan}
	e.gen.Store(c.gen.Add(1))
	next[query] = e
	for len(next) > c.perShard {
		oldestKey, oldestGen := "", int64(1)<<62
		for k, v := range next {
			if g := v.gen.Load(); g < oldestGen {
				oldestKey, oldestGen = k, g
			}
		}
		delete(next, oldestKey)
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
	sh.m.Store(&next)
	return plan, nil
}

// Len reports how many plans the cache currently holds.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(*c.shards[i].m.Load())
	}
	return n
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Size      int
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Size:      c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
