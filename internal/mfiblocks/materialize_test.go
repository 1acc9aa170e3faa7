package mfiblocks

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// materializeFixture is a random corpus shaped to reach every case of
// the group projection: genders, birth years and professions whose
// posting lists span several words, names and cities of one word, many
// tying in posting length, and fathers' names rare enough to be the
// rarest item of a single itemset; plus a list of itemsets, mined and
// made up.
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
		if rng.Intn(4) > 0 {
			r.Add(record.Profession, fmt.Sprintf("Job%d", rng.Intn(20)))
		}
		if rng.Intn(3) == 0 {
			r.Add(record.FatherName, fmt.Sprintf("Father%d", rng.Intn(500)))
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
			// Two records' items together: no record holds two first
			// or last names, so the support is usually empty.
			b := itemsOf(rng.Intn(n))
			set.Items = append(set.Items, subset(b, 1+rng.Intn(len(b)))...)
		case 2:
			// A mined support above any cap, whatever the true one is.
			set.Support = 1000
		case 3:
			// One item: the support is the group's posting list.
			set.Items = set.Items[:1]
		}
		fx.mfis = append(fx.mfis, set)
	}
	if mined < 500 {
		t.Fatalf("fixture mined only %d MFIs", mined)
	}

	// The fixture must hold what the test is for: every case of the
	// group projection, counted over the itemsets grouped with no cap.
	groups, _ := rarestFirstJobs(fx.index, fx.mfis, math.MaxInt)
	var single, oneItem, multiWord, below2 int
	for _, g := range groups {
		if len(g.jobs) == 1 {
			single++
		}
		if len(fx.index.Posting(g.rank)) > 64 {
			multiWord++
		}
		for _, k := range g.jobs {
			if items := fx.mfis[k].Items; len(items) == 1 {
				oneItem++
			} else if len(fx.index.SupportSet(items)) < 2 {
				below2++
			}
		}
	}
	t.Logf("fixture: %d groups, %d of one MFI, %d over multi-word rows; %d one-item itemsets, %d with an AND below two",
		len(groups), single, multiWord, oneItem, below2)
	if single < 80 || multiWord < 25 || oneItem < 700 || below2 < 1200 {
		t.Fatalf("fixture has %d one-MFI groups, %d groups with |P| > 64, %d one-item itemsets and %d with an AND below two",
			single, multiWord, oneItem, below2)
	}
	return fx
}

// naiveBlocks is the reference: each itemset's block by the spec's cap
// and reference score (specBlock) over its members, members[i] being the
// spec's linear scan of mfis[i] (specMembers), with no score floor. An
// itemset whose mined support is already above the cap is pruned without
// reading its members, as the materializer prunes it without projecting
// it.
func naiveBlocks(sc *scorer, mfis []fpgrowth.Itemset, members [][]int, minsup, maxSize int) (blocks []*Block, csPruned int) {
	for i, mfi := range mfis {
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

// TestBuildBlocksMatchesNaiveReference is the group projection's
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
				l.all, l.csPruned = naiveBlocks(sc, fx.mfis, members, l.minsup, maxSize)
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
		// Per call: out, the job grouping's slices (the groups growing
		// by doubling), the span-less bookkeeping; per worker: the goroutine, the materializer and its
		// item slots, and the used list, projection rows, row offsets,
		// support, member and Jaccard scratch, each growing by doubling.
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

// TestMaterializeGroupAllocs drives the materializer's group routine over
// every group on one goroutine: once its scratch has grown, an MFI that
// forms no block allocates nothing, and an admitted one its block and
// member slice. It runs under the race detector too: one goroutine makes
// no synchronization for it to count.
func TestMaterializeGroupAllocs(t *testing.T) {
	fx := newMaterializeFixture(t, 3)
	cfg := NewConfig()
	sc := newScorer(&cfg, fx.corpus.Dict, fx.corpus.Txns, fx.corpus.Records)
	out := make([]*Block, len(fx.mfis))
	m := newMaterializer(&cfg, sc, fx.index, fx.mfis, 5, out)
	groups, _ := rarestFirstJobs(fx.index, fx.mfis, m.maxSize)
	run := func() {
		clear(out)
		for _, g := range groups {
			m.group(g)
		}
	}
	admitted := func() int {
		n := 0
		for _, b := range out {
			if b != nil {
				n++
			}
		}
		return n
	}
	run()
	blocks := admitted()
	if blocks == 0 || blocks == len(fx.mfis) {
		t.Fatalf("%d of %d MFIs admitted: the fixture must admit some and leave some out", blocks, len(fx.mfis))
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > float64(2*blocks) {
		t.Errorf("%.0f allocations for %d admitted blocks, want ≤ %d", allocs, blocks, 2*blocks)
	}
	// With the floor at 1, above every score, every MFI is projected,
	// and those that can form a block scored, yet none is admitted.
	m.minScore = 1
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 || admitted() != 0 {
		t.Errorf("%.0f allocations and %d blocks with none admitted, want 0 and 0", allocs, admitted())
	}
}
