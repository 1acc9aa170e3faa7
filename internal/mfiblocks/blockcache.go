package mfiblocks

import (
	"sync"
	"sync/atomic"
)

// Cross-iteration block materialization cache.
//
// Correctness rests on the SupportSet contract: blocks are always
// materialized over the *whole* transaction database, never the
// iteration's active subset, so an MFI key mined again at a lower minsup
// level yields byte-identical members — and the scorer is a pure
// function of those members — making (members, score) safely memoizable
// by key content. Everything minsup-dependent (the compact-set cap
// maxSize, the < 2 member floor) is re-applied by the caller on every
// hit, so a cached entry admitted at one level can still be pruned at
// another.
//
// The cache is sharded 16 ways (block building runs on a worker pool),
// bounded per shard, and evicts by clearing a full shard — the same
// regime as features.PairMemo. Hash collisions chain and verify full key
// equality, so a hit is never a false positive.

// DefaultBlockCache is the default bound (total entries) of the
// cross-iteration block cache; the CLIs' -block-cache flag defaults to
// it, and 0 disables the cache entirely.
const DefaultBlockCache = 1 << 16

// BlockCacheStats is the cache's lifetime counters, surfaced on Result
// and folded into telemetry and the run report.
type BlockCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

const blockCacheShards = 16

type blockCacheEntry struct {
	key     []int
	members []int
	score   float64
}

type blockCacheShard struct {
	mu sync.RWMutex
	m  map[uint64][]blockCacheEntry
	n  int
}

// blockCache memoizes materialized blocks across minsup iterations.
// A nil *blockCache disables every method at zero cost.
type blockCache struct {
	shards   [blockCacheShards]blockCacheShard
	perShard int
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64
}

// newBlockCache returns a cache bounded at maxEntries total entries
// (minimum one per shard), or nil when maxEntries <= 0.
func newBlockCache(maxEntries int) *blockCache {
	if maxEntries <= 0 {
		return nil
	}
	per := maxEntries / blockCacheShards
	if per < 1 {
		per = 1
	}
	c := &blockCache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64][]blockCacheEntry)
	}
	return c
}

// hashKey is FNV-1a over the key's item ids (the same inline idiom as
// features.PairMemo).
func hashKey(key []int) uint64 {
	h := uint64(14695981039346656037)
	for _, it := range key {
		v := uint64(it)
		for s := 0; s < 64; s += 8 {
			h ^= (v >> uint(s)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the memoized members and score for the key, verifying full
// key equality behind the hash.
func (c *blockCache) get(key []int) (members []int, score float64, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	h := hashKey(key)
	sh := &c.shards[h%blockCacheShards]
	sh.mu.RLock()
	for _, e := range sh.m[h] {
		if intsEqual(e.key, key) {
			members, score, ok = e.members, e.score, true
			break
		}
	}
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return members, score, ok
}

// put memoizes a materialized block. The key and members slices are
// retained as-is and must never be mutated afterwards (MFI keys and
// kept-block member slices are both immutable once built). A full shard
// is cleared wholesale before inserting — cheap, and the minsup loop
// re-materializes anything it still needs.
func (c *blockCache) put(key []int, members []int, score float64) {
	if c == nil {
		return
	}
	h := hashKey(key)
	sh := &c.shards[h%blockCacheShards]
	sh.mu.Lock()
	for _, e := range sh.m[h] {
		if intsEqual(e.key, key) {
			sh.mu.Unlock()
			return
		}
	}
	if sh.n >= c.perShard {
		c.evicted.Add(int64(sh.n))
		clear(sh.m)
		sh.n = 0
	}
	sh.m[h] = append(sh.m[h], blockCacheEntry{key: key, members: members, score: score})
	sh.n++
	sh.mu.Unlock()
}

// Stats snapshots the cache counters. Safe on nil (all zeros).
func (c *blockCache) Stats() BlockCacheStats {
	if c == nil {
		return BlockCacheStats{}
	}
	st := BlockCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicted.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Entries += sh.n
		sh.mu.RUnlock()
	}
	return st
}
