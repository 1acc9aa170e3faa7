package mfiblocks

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// naiveBlocks is the reference: each itemset's block by the spec's cap
// and reference score (specBlock) over its members, members[i] being the
// spec's linear scan of fx.mfis[i] (specMembers), with no score floor.
// An itemset whose mined support is already above the cap is pruned
// without reading its members, as the materializer prunes it without a
// walk.
func naiveBlocks(sc *scorer, fx *materializeFixture, members [][]int, minsup, maxSize int) (blocks []*Block, csPruned int) {
	for i, mfi := range fx.mfis {
		if mfi.Support > maxSize {
			csPruned++
			continue
		}
		b, capped := specBlock(sc, mfi.Items, members[i], minsup)
		if capped {
			csPruned++
		}
		if b != nil {
			blocks = append(blocks, b)
		}
	}
	return blocks, csPruned
}

// TestBuildBlocksMatchesNaiveReference is the materialization walk's
// property test: over random corpora, for every worker count, at two
// minsup levels whose compact-set caps differ and at two score floors —
// MinScore −1, below every score, and the default — buildBlocks returns
// exactly the naive reference's blocks and exactly its compact-set prune
// count.
func TestBuildBlocksMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		fx := newMaterializeFixture(t, seed)
		// An itemset's members depend on neither minsup nor the weighting,
		// so each is scanned once, for every cell below.
		var members [][]int
		for _, weighted := range []bool{false, true} {
			cfg := NewConfig()
			cfg.ExpertWeights = weighted
			sc := newScorer(&cfg, fx.corpus.Dict, fx.corpus.Txns, fx.corpus.Records)
			if members == nil {
				members = make([][]int, len(fx.mfis))
				for i, mfi := range fx.mfis {
					members[i] = specMembers(sc, mfi.Items)
				}
			}
			type level struct {
				minsup   int
				all      []*Block // every block: the reference at MinScore −1
				csPruned int
			}
			levels := []level{{minsup: 5}, {minsup: 2}}
			for i := range levels {
				l := &levels[i]
				maxSize := int(float64(l.minsup) * cfg.P)
				l.all, l.csPruned = naiveBlocks(sc, fx, members, l.minsup, maxSize)
				var empty, capped int
				for _, mfi := range fx.mfis {
					switch n := len(fx.index.SupportSet(mfi.Items)); {
					case n == 0:
						empty++
					case n > maxSize:
						capped++
					}
				}
				if len(l.all) < 200 || empty < 200 || capped < 200 || l.csPruned < 200 {
					t.Fatalf("seed %d minsup %d: reference has %d blocks, %d empty supports, %d over the cap, %d pruned",
						seed, l.minsup, len(l.all), empty, capped, l.csPruned)
				}
			}
			for _, floor := range []float64{-1, NewConfig().MinScore} {
				cfg.MinScore = floor
				for _, l := range levels {
					// The reference at this floor: every block above it.
					want := slices.DeleteFunc(slices.Clone(l.all), func(b *Block) bool { return b.Score <= floor })
					if floor >= 0 && len(l.all)-len(want) < 10 {
						t.Fatalf("seed %d minsup %d: the floor %v drops only %d of %d blocks", seed, l.minsup, floor, len(l.all)-len(want), len(l.all))
					}
					for _, workers := range []int{1, 2, 3, 8} {
						cfg.Workers = workers
						label := fmt.Sprintf("seed=%d weighted=%v floor=%v workers=%d minsup=%d", seed, weighted, floor, workers, l.minsup)
						blocks, csPruned := buildBlocks(&cfg, sc, fx.index, fx.mfis, l.minsup, nil)
						if csPruned != l.csPruned {
							t.Fatalf("%s: csPruned = %d, reference %d", label, csPruned, l.csPruned)
						}
						if !reflect.DeepEqual(blocks, want) {
							t.Fatalf("%s: %d blocks diverge from the reference's %d", label, len(blocks), len(want))
						}
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
		blocks, _ := buildBlocks(&cfg, sc, fx.index, fx.mfis, 5, nil)
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
			buildBlocks(&cfg, sc, fx.index, fx.mfis, 5, nil)
		})
		if allocs > bound {
			t.Errorf("workers=%d: %.0f allocations for %d admitted blocks of %d MFIs, want ≤ %.0f",
				workers, allocs, admitted, len(fx.mfis), bound)
		}
		t.Logf("workers=%d: %.0f allocations, %d admitted blocks, %d MFIs", workers, allocs, admitted, len(fx.mfis))
	}
}
