package mfiblocks

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// materializeFixture is a random corpus shaped to reach every case of
// the materialization walk: genders and birth years far above the dense
// boundary, names far below it and tying in posting length, cities
// straddling it; plus a list of itemsets, mined and made up.
type materializeFixture struct {
	corpus *Corpus
	index  *fpgrowth.Index
	mfis   []fpgrowth.Itemset
}

func newMaterializeFixture(t testing.TB, seed int64) *materializeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 2400
	recs := make([]*record.Record, n)
	for i := range recs {
		r := &record.Record{BookID: int64(i + 1), Source: "list-1", Kind: record.List}
		r.Add(record.FirstName, fmt.Sprintf("First%d", rng.Intn(90)))
		r.Add(record.LastName, fmt.Sprintf("Last%d", rng.Intn(300)))
		r.Add(record.Gender, fmt.Sprint(rng.Intn(2)))
		if rng.Intn(4) > 0 {
			r.Add(record.BirthYear, fmt.Sprint(1900+rng.Intn(12)))
		}
		if rng.Intn(3) > 0 {
			r.Add(record.BirthCity, fmt.Sprintf("City%d", rng.Intn(40)))
		}
		recs[i] = r
	}
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	fx := &materializeFixture{corpus: NewCorpus(coll)}
	txns := fx.corpus.Txns
	miner := fpgrowth.NewMinerTxns(txns)
	fx.index = miner.BuildIndex()

	// The fixture must hold what the test is for: items on both sides of
	// the dense boundary and ties in posting length.
	lengths := make([]int, txns.MaxItem()+1)
	for i := 0; i < n; i++ {
		for _, it := range txns.Txn(i) {
			lengths[it]++
		}
	}
	boundary := max((n+63)/64, 64)
	var dense, sparse, tied int
	seen := map[int]bool{}
	for _, l := range lengths {
		if l >= boundary {
			dense++
		} else {
			sparse++
		}
		if seen[l] {
			tied++
		}
		seen[l] = true
	}
	if dense < 10 || sparse < 100 || tied < 50 {
		t.Fatalf("fixture has %d dense, %d sparse, %d tied items", dense, sparse, tied)
	}

	itemsOf := func(i int) []int {
		txn := txns.Txn(i)
		out := make([]int, len(txn))
		for k, it := range txn {
			out[k] = int(it)
		}
		return out
	}
	subset := func(items []int, k int) []int {
		out := make([]int, 0, k)
		for _, p := range rng.Perm(len(items))[:k] {
			out = append(out, items[p])
		}
		return out
	}
	// Mined MFIs: real keys, real supports, many above the cap.
	fx.mfis = miner.MineMaximal(2, nil)
	mined := len(fx.mfis)
	for i := 0; i < 2500; i++ {
		a := itemsOf(rng.Intn(n))
		set := fpgrowth.Itemset{Items: subset(a, 1+rng.Intn(len(a))), Support: 2}
		switch i % 5 {
		case 1:
			// Two records' items together: the first name and last name
			// of both are the rarest items of the set, and no record
			// holds two of either, so the prefix is empty.
			b := itemsOf(rng.Intn(n))
			set.Items = append(set.Items, subset(b, 1+rng.Intn(len(b)))...)
		case 2:
			// A mined support above any cap, whatever the true one is.
			set.Support = 1000
		case 3:
			// One item: the support is a posting list, not a copy.
			set.Items = set.Items[:1]
		}
		fx.mfis = append(fx.mfis, set)
	}
	if mined < 500 {
		t.Fatalf("fixture mined only %d MFIs", mined)
	}
	return fx
}

// naiveBlocks is the reference: every itemset's support by a linear scan
// of every transaction, its score by the map-based Jaccard.
func naiveBlocks(sc *scorer, fx *materializeFixture, minsup, maxSize int) (blocks []*Block, csPruned int) {
	txns := fx.corpus.Txns
	has := make([]map[int]bool, txns.Len())
	for i := range has {
		has[i] = map[int]bool{}
		for _, it := range txns.Txn(i) {
			has[i][int(it)] = true
		}
	}
	for _, mfi := range fx.mfis {
		if mfi.Support > maxSize {
			csPruned++
			continue
		}
		var members []int
		for i := range has {
			all := true
			for _, it := range mfi.Items {
				all = all && has[i][it]
			}
			if all {
				members = append(members, i)
			}
		}
		if len(members) < 2 {
			continue
		}
		if len(members) > maxSize {
			csPruned++
			continue
		}
		blocks = append(blocks, &Block{Key: mfi.Items, Members: members, Score: refClusterJaccard(sc, members), MinSup: minsup})
	}
	return blocks, csPruned
}

// TestBuildBlocksMatchesNaiveReference is the materialization walk's
// property test: over random corpora, for every worker count, with and
// without the cache, and at two minsup levels sharing one cache (so the
// second is served from it and re-filtered under a tighter cap),
// buildBlocks returns exactly the naive reference's blocks and exactly
// its compact-set prune count.
func TestBuildBlocksMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		fx := newMaterializeFixture(t, seed)
		for _, weighted := range []bool{false, true} {
			cfg := NewConfig()
			cfg.ExpertWeights = weighted
			sc := newScorer(&cfg, fx.corpus.Dict, fx.corpus.Txns, fx.corpus.Records)
			type level struct {
				minsup   int
				blocks   []*Block
				csPruned int
			}
			levels := []level{{minsup: 5}, {minsup: 2}}
			for i := range levels {
				l := &levels[i]
				l.blocks, l.csPruned = naiveBlocks(sc, fx, l.minsup, int(float64(l.minsup)*cfg.P))
				var empty, capped int
				for _, mfi := range fx.mfis {
					switch n := len(fx.index.SupportSet(mfi.Items)); {
					case n == 0:
						empty++
					case n > int(float64(l.minsup)*cfg.P):
						capped++
					}
				}
				if len(l.blocks) < 200 || empty < 200 || capped < 200 || l.csPruned < 200 {
					t.Fatalf("seed %d minsup %d: reference has %d blocks, %d empty supports, %d over the cap, %d pruned",
						seed, l.minsup, len(l.blocks), empty, capped, l.csPruned)
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, cached := range []bool{false, true} {
					cfg.Workers = workers
					var cache *blockCache
					if cached {
						cache = newBlockCache(DefaultBlockCache)
					}
					for _, l := range levels {
						label := fmt.Sprintf("seed=%d weighted=%v workers=%d cache=%v minsup=%d", seed, weighted, workers, cached, l.minsup)
						blocks, csPruned := buildBlocks(&cfg, sc, fx.index, cache, fx.mfis, l.minsup, nil)
						if csPruned != l.csPruned {
							t.Fatalf("%s: csPruned = %d, reference %d", label, csPruned, l.csPruned)
						}
						if !reflect.DeepEqual(blocks, l.blocks) {
							t.Fatalf("%s: %d blocks diverge from the reference's %d", label, len(blocks), len(l.blocks))
						}
					}
					if cached && cache.Stats().Hits == 0 {
						t.Fatalf("seed=%d workers=%d: the second level never hit the cache", seed, workers)
					}
				}
			}
		}
	}
}

// TestBuildBlocksAllocs guards what materialization allocates: an
// admitted block's struct and its exact-size member slice, plus scratch
// that grows with the worker count and not with the number of MFIs.
func TestBuildBlocksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per goroutine and per sync operation")
	}
	fx := newMaterializeFixture(t, 3)
	cfg := NewConfig()
	sc := newScorer(&cfg, fx.corpus.Dict, fx.corpus.Txns, fx.corpus.Records)
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		blocks, _ := buildBlocks(&cfg, sc, fx.index, nil, fx.mfis, 5, nil)
		admitted := len(blocks)
		// Per call: out, the job grouping's three slices, the span-less
		// bookkeeping; per worker: the goroutine, the walker and its stack
		// levels, the rank arena, the run entries and the Jaccard scratch,
		// each growing by doubling.
		slack := 32 + 64*workers
		bound := float64(2*admitted + slack)
		walked := 0
		for _, mfi := range fx.mfis {
			if mfi.Support <= int(5*cfg.P) {
				walked++
			}
		}
		if walked-admitted < 2*slack {
			t.Fatalf("%d of %d walked MFIs admitted against a slack of %d: the guard would pass a per-MFI allocation", admitted, walked, slack)
		}
		allocs := testing.AllocsPerRun(5, func() {
			buildBlocks(&cfg, sc, fx.index, nil, fx.mfis, 5, nil)
		})
		if allocs > bound {
			t.Errorf("workers=%d: %.0f allocations for %d admitted blocks of %d MFIs, want ≤ %.0f",
				workers, allocs, admitted, len(fx.mfis), bound)
		}
		t.Logf("workers=%d: %.0f allocations, %d admitted blocks, %d MFIs", workers, allocs, admitted, len(fx.mfis))
	}
}
