package features

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestPairMemoCanonicalOrdering checks (a, b) and (b, a) share one entry.
func TestPairMemoCanonicalOrdering(t *testing.T) {
	pm := NewPairMemo(128)
	pm.put(memoJW, "zeta", "alpha", 0.75)
	if v, ok := pm.get(memoJW, "alpha", "zeta"); !ok || v != 0.75 {
		t.Fatalf("get(alpha, zeta) = %v, %v; want the (zeta, alpha) entry", v, ok)
	}
	if v, ok := pm.get(memoJW, "zeta", "alpha"); !ok || v != 0.75 {
		t.Fatalf("get(zeta, alpha) = %v, %v", v, ok)
	}
	if pm.Len() != 1 {
		t.Fatalf("Len = %d, want 1 canonical entry", pm.Len())
	}
}

// TestPairMemoKindsPartition checks kinds never alias.
func TestPairMemoKindsPartition(t *testing.T) {
	pm := NewPairMemo(128)
	pm.put(memoJW, "a", "b", 0.9)
	if _, ok := pm.get(memoGram, "a", "b"); ok {
		t.Fatal("gram lookup served a JW entry")
	}
	pm.put(memoGram, "a", "b", 0.1)
	if v, _ := pm.get(memoJW, "a", "b"); v != 0.9 {
		t.Fatalf("JW entry clobbered by gram put: %v", v)
	}
}

// TestPairMemoBound checks the per-shard bound holds under arbitrary
// insertion and that evictions are counted.
func TestPairMemoBound(t *testing.T) {
	const size = 64
	pm := NewPairMemo(size)
	for i := 0; i < 10*size; i++ {
		pm.put(memoJW, fmt.Sprintf("k%05d", i), "x", float64(i))
	}
	// Bound is enforced per shard: residency never exceeds
	// shards * perShard (= size rounded up to a multiple of the shard
	// count).
	limit := memoShardCount * ((size + memoShardCount - 1) / memoShardCount)
	if n := pm.Len(); n > limit {
		t.Fatalf("Len = %d exceeds bound %d", n, limit)
	}
	st := pm.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions counted after 10x-capacity insertion")
	}
	if st.Entries != pm.Len() {
		t.Errorf("Stats.Entries = %d, Len = %d", st.Entries, pm.Len())
	}
}

// TestPairMemoStatsCounts checks hit/miss accounting.
func TestPairMemoStatsCounts(t *testing.T) {
	pm := NewPairMemo(0) // default size
	if _, ok := pm.get(memoJW, "a", "b"); ok {
		t.Fatal("empty memo hit")
	}
	pm.put(memoJW, "a", "b", 1)
	if _, ok := pm.get(memoJW, "b", "a"); !ok {
		t.Fatal("stored entry missed")
	}
	st := pm.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestPairMemoNilSafe checks the nil memo contract the extractor relies
// on.
func TestPairMemoNilSafe(t *testing.T) {
	var pm *PairMemo
	if _, ok := pm.get(memoJW, "a", "b"); ok {
		t.Fatal("nil memo hit")
	}
	pm.put(memoJW, "a", "b", 1) // must not panic
	if pm.Len() != 0 || pm.Stats() != (MemoStats{}) {
		t.Fatal("nil memo reported state")
	}
}

// TestPairMemoConcurrent hammers one memo from many goroutines over a
// skewed key set (run under -race in CI); values must always read back
// as the pure function of their key.
func TestPairMemoConcurrent(t *testing.T) {
	pm := NewPairMemo(256)
	value := func(a, b string) float64 {
		if a > b {
			a, b = b, a
		}
		return float64(len(a)*31 + len(b))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				a := fmt.Sprintf("v%d", rng.Intn(40))
				b := fmt.Sprintf("v%d", rng.Intn(40))
				if v, ok := pm.get(memoJW, a, b); ok {
					if v != value(a, b) {
						t.Errorf("memo returned %v for (%s, %s), want %v", v, a, b, value(a, b))
						return
					}
					continue
				}
				pm.put(memoJW, a, b, value(a, b))
			}
		}(w)
	}
	wg.Wait()
}

// TestExtractProfiledMemoEquality is the memo arm of the golden-equality
// suite: with the memo enabled (including a deliberately tiny memo that
// evicts constantly), ExtractProfiled must stay bit-identical to Extract
// and to the memo-less profiled path.
func TestExtractProfiledMemoEquality(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 200
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewExtractor(gen.Gaz)
	memod := NewExtractor(gen.Gaz)
	memod.Memo = NewPairMemo(0)
	tiny := NewExtractor(gen.Gaz)
	tiny.Memo = NewPairMemo(16) // constant eviction pressure
	caches := []*ProfileCache{NewProfileCache(plain), NewProfileCache(memod), NewProfileCache(tiny)}
	for _, cache := range caches {
		cache.Build(gen.Collection, 2)
	}

	records := gen.Collection.Records
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		a, b := rng.Intn(len(records)), rng.Intn(len(records))
		want := plain.Extract(records[a], records[b])
		for ci, cache := range caches {
			got := cache.Extractor().ExtractProfiled(cache.Get(a), cache.Get(b))
			assertVectorsEqual(t, fmt.Sprintf("cache%d", ci), want, got)
		}
	}
	st := memod.Memo.Stats()
	if st.Hits == 0 {
		t.Error("memo saw no hits over 600 skewed pairs")
	}
	if tiny.Memo.Stats().Evictions == 0 {
		t.Error("tiny memo never evicted")
	}
}
