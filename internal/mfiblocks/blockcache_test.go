package mfiblocks

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// TestBlockCacheBasics pins the unit contract: misses before puts, hits
// after, full-key verification behind the hash, duplicate puts ignored,
// and nil-cache methods all no-ops.
func TestBlockCacheBasics(t *testing.T) {
	c := newBlockCache(64)
	key := []int{3, 17, 99}
	if _, _, ok := c.get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	members := []int{1, 2, 5}
	c.put(key, members, 0.75)
	gotM, gotS, ok := c.get(key)
	if !ok || gotS != 0.75 || !reflect.DeepEqual(gotM, members) {
		t.Fatalf("get = (%v, %v, %v), want (%v, 0.75, true)", gotM, gotS, ok, members)
	}
	// A duplicate put must not clobber or duplicate the entry.
	c.put(key, []int{9}, 0.1)
	if gotM, gotS, _ = c.get(key); gotS != 0.75 || !reflect.DeepEqual(gotM, members) {
		t.Fatal("duplicate put replaced the original entry")
	}
	if _, _, ok := c.get([]int{3, 17}); ok {
		t.Fatal("prefix key reported a hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses, 1 entry", st)
	}

	var nilCache *blockCache
	if _, _, ok := nilCache.get(key); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.put(key, members, 1)
	if st := nilCache.Stats(); st != (BlockCacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if newBlockCache(0) != nil || newBlockCache(-5) != nil {
		t.Fatal("non-positive bound did not disable the cache")
	}
}

// TestBlockCacheEviction fills a tiny cache far past its bound: entries
// stay bounded per shard and the eviction counter accounts for every
// cleared entry.
func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(16) // one entry per shard
	for i := 0; i < 400; i++ {
		c.put([]int{i, i * 7, i * 31}, []int{i, i + 1}, 0.5)
	}
	st := c.Stats()
	if st.Entries > 16 {
		t.Fatalf("entries = %d exceed bound 16", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("400 puts into a 16-entry cache never evicted")
	}
	if st.Evictions+int64(st.Entries) != 400 {
		t.Fatalf("evictions %d + entries %d != 400 puts", st.Evictions, st.Entries)
	}
}

// TestBuildBlocksCacheAdversarial is the satellite's adversarial case:
// the same MFI keys recur across three minsup levels whose compact-set
// caps differ (maxSize = minsup*P shrinks as minsup falls), so cached
// entries admitted at one level must be re-filtered — not replayed — at
// the next. Every level's blocks and prune count must match a cache-off
// build bit-for-bit, while the shared cache demonstrably serves hits.
func TestBuildBlocksCacheAdversarial(t *testing.T) {
	g := smallItaly(t, 300)
	cfg := NewConfig()
	// Tighten the compact-set multiplier so maxSize = minsup*P actually
	// prunes at the lower minsup levels (the fixture's largest support
	// set has 3 members, so maxSize must fall to 2): entries cached and
	// admitted at minsup 5 must be re-filtered, not replayed, at minsup 2.
	cfg.P = 1.2
	corpus := NewCorpus(g.Collection)
	miner := fpgrowth.NewMinerTxns(corpus.Txns)
	index := miner.BuildIndex()
	sc := newScorer(&cfg, corpus.Dict, corpus.Txns, corpus.Records)
	mfis := miner.MineMaximal(2, nil)
	if len(mfis) < 50 {
		t.Fatalf("fixture mined only %d MFIs", len(mfis))
	}

	cache := newBlockCache(DefaultBlockCache)
	prunedDiffers := false
	for _, minsup := range []int{5, 4, 3, 2} {
		wantBlocks, wantPruned := buildBlocks(&cfg, sc, index, nil, mfis, minsup, nil)
		gotBlocks, gotPruned := buildBlocks(&cfg, sc, index, cache, mfis, minsup, nil)
		if gotPruned != wantPruned {
			t.Fatalf("minsup=%d: csPruned %d with cache, %d without", minsup, gotPruned, wantPruned)
		}
		if !reflect.DeepEqual(wantBlocks, gotBlocks) {
			t.Fatalf("minsup=%d: cached blocks diverge (%d vs %d)", minsup, len(gotBlocks), len(wantBlocks))
		}
		if wantPruned > 0 {
			prunedDiffers = true
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatal("recurring keys across minsup levels produced no cache hits")
	}
	if !prunedDiffers {
		t.Fatal("no level exercised the compact-set cap; fixture too permissive")
	}

	// Same keys through a pathologically tiny cache: eviction churn must
	// not change a single bit either.
	tiny := newBlockCache(8)
	for _, minsup := range []int{5, 4, 3, 2} {
		wantBlocks, wantPruned := buildBlocks(&cfg, sc, index, nil, mfis, minsup, nil)
		gotBlocks, gotPruned := buildBlocks(&cfg, sc, index, tiny, mfis, minsup, nil)
		if gotPruned != wantPruned || !reflect.DeepEqual(wantBlocks, gotBlocks) {
			t.Fatalf("minsup=%d: tiny cache diverges from cache-off build", minsup)
		}
	}
	if tiny.Stats().Evictions == 0 {
		t.Fatal("tiny cache never evicted; churn path unexercised")
	}
}

// assertSameBlocking compares everything blocking-derived in two
// results except the cache counters (which legitimately differ across
// cache configurations).
func assertSameBlocking(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Pairs, got.Pairs) {
		t.Fatalf("%s: Pairs diverge (%d vs %d)", label, len(got.Pairs), len(want.Pairs))
	}
	if !reflect.DeepEqual(want.PairScores, got.PairScores) {
		t.Fatalf("%s: PairScores diverge", label)
	}
	if !reflect.DeepEqual(want.PairBlocks, got.PairBlocks) {
		t.Fatalf("%s: PairBlocks diverge", label)
	}
	if !reflect.DeepEqual(want.Blocks, got.Blocks) {
		t.Fatalf("%s: Blocks diverge", label)
	}
	if !reflect.DeepEqual(want.Covered, got.Covered) {
		t.Fatalf("%s: Covered diverges", label)
	}
	if !reflect.DeepEqual(stripElapsed(want.Iterations), stripElapsed(got.Iterations)) {
		t.Fatalf("%s: iteration stats diverge", label)
	}
}

// TestRunBlockCacheBitIdentical is the engine-level acceptance check:
// Result is bit-identical across cache off, a tiny eviction-churning
// cache, and the default cache, composed with worker fan-out.
func TestRunBlockCacheBitIdentical(t *testing.T) {
	g := smallItaly(t, 400)
	base := NewConfig()
	want, err := Run(base, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("baseline produced no pairs")
	}
	if want.Cache != (BlockCacheStats{}) {
		t.Fatalf("cache-off run reported cache activity: %+v", want.Cache)
	}

	for _, cacheSize := range []int{4, 64, DefaultBlockCache} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("cache=%d workers=%d", cacheSize, workers)
			cfg := NewConfig()
			cfg.BlockCache = cacheSize
			cfg.Workers = workers
			got, err := Run(cfg, g.Collection)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameBlocking(t, label, want, got)
			if got.Cache.Hits+got.Cache.Misses == 0 {
				t.Fatalf("%s: cache never consulted", label)
			}
		}
	}
}

// blockCacheRecurrenceCollection builds groups whose shared {first,
// last} itemset scores well below the raised MinScore: every iteration
// re-mines the same maximal keys (nothing is ever admitted, so nothing
// is ever covered), guaranteeing cross-iteration cache hits.
func blockCacheRecurrenceCollection(t *testing.T) *record.Collection {
	t.Helper()
	var records []*record.Record
	id := int64(1)
	for group := 0; group < 6; group++ {
		for dup := 0; dup < 5; dup++ {
			r := &record.Record{BookID: id, Source: "list-1", Kind: record.List}
			r.Add(record.FirstName, fmt.Sprintf("Name%c", 'A'+group))
			r.Add(record.LastName, fmt.Sprintf("Fam%c", 'A'+group))
			r.Add(record.BirthYear, fmt.Sprintf("%d", 1900+int(id)))
			records = append(records, r)
			id++
		}
	}
	coll, err := record.NewCollection(records)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// TestRunBlockCacheHitsOnRecurringKeys drives the run that motivates
// the cache: keys that are materialized but never admitted recur at
// every minsup level, so the cached (members, score) is reused instead
// of re-intersecting posting lists — with and without hits, the output
// is identical.
func TestRunBlockCacheHitsOnRecurringKeys(t *testing.T) {
	coll := blockCacheRecurrenceCollection(t)
	base := NewConfig()
	base.PruneFraction = 0
	base.MinScore = 0.99 // nothing admitted: the active set never shrinks

	off := base
	want, err := Run(off, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) != 0 {
		t.Fatal("MinScore 0.99 still admitted pairs; fixture drifted")
	}

	cached := base
	cached.BlockCache = DefaultBlockCache
	got, err := Run(cached, coll)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBlocking(t, "recurrence", want, got)
	if got.Cache.Hits == 0 {
		t.Fatalf("recurring keys never hit the cache: %+v", got.Cache)
	}
	if got.Cache.Misses == 0 {
		t.Fatal("first materialization of each key should miss")
	}
}

// TestConfigValidateBlockCache extends the validation table.
func TestConfigValidateBlockCache(t *testing.T) {
	cfg := NewConfig()
	cfg.BlockCache = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative BlockCache accepted")
	}
	cfg = NewConfig()
	cfg.BlockCache = DefaultBlockCache
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid BlockCache rejected: %v", err)
	}
}
