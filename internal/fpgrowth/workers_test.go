package fpgrowth

import (
	"math/rand"
	"reflect"
	"testing"
)

// adversarialTxns is a hand-built database whose subsumption crosses
// worker stores: once every top-level rank has its own worker, {0,1} is
// mined — and is maximal — in the store of rank 1's worker, which never
// sees item 5, but at minsup 2 it is subsumed globally by {0,1,5}, which
// only rank 5's worker mines. The cross-store merge must reconcile them.
//
// Item frequencies: 0:6, 1:6, 2:3, 3:3, 4:2, 5:2 → ranks 0..5 in item
// order.
func adversarialTxns() [][]int {
	return [][]int{
		{0, 1}, {0, 1}, {0, 1}, {0, 1},
		{0, 1, 5}, {0, 1, 5},
		{2, 3}, {2, 3}, {2, 4}, {3, 4},
	}
}

func containsSet(sets []Itemset, items []int) bool {
	for _, s := range sets {
		if reflect.DeepEqual(s.Items, items) {
			return true
		}
	}
	return false
}

// TestShardMergeRestoresGlobalMaximality pins the adversarial case the
// cross-store merge exists for: an itemset maximal within its worker's
// store but subsumed by a superset in another worker's store must not
// survive, and the parallel output must be byte-identical to the serial
// one at every minsup level (at minsup 3 the superset {0,1,5} drops below
// support and {0,1} becomes globally maximal — the merge must keep it).
func TestShardMergeRestoresGlobalMaximality(t *testing.T) {
	txns := adversarialTxns()
	for minsup := 2; minsup <= 5; minsup++ {
		want := mineWith(t, txns, 1, minsup, nil)
		for _, workers := range []int{2, 3, 8} {
			got := mineWith(t, txns, workers, minsup, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d workers=%d: parallel MFIs diverge\nwant %v\ngot  %v",
					minsup, workers, want, got)
			}
		}
		switch minsup {
		case 2:
			if !containsSet(want, []int{0, 1, 5}) || containsSet(want, []int{0, 1}) {
				t.Fatalf("minsup=2 fixture not adversarial: %v", want)
			}
		case 3:
			if !containsSet(want, []int{0, 1}) || containsSet(want, []int{0, 1, 5}) {
				t.Fatalf("minsup=3 fixture lost {0,1}: %v", want)
			}
		}
	}
	// Ranks equal item ids here, so the stores read as itemsets.
	m := NewMiner(txns)
	m.Workers = 8
	stores, _ := minedStores(m, 2)
	held := false
	for _, s := range stores {
		for _, set := range s.sets {
			held = held || reflect.DeepEqual(set.ranks, []int32{0, 1})
		}
	}
	if !held {
		t.Fatal("no worker store holds {0,1} at minsup 2: the merge was never needed")
	}
}

// TestShardEquivalenceRandomized sweeps workers × seeds × minsup over
// contested random databases, asserting byte-identical MFIs against the
// serial path, with every merged support recounted against the index.
func TestShardEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		txns := equivTxns(seed, 600, 300, 12)
		for _, minsup := range []int{2, 3, 5} {
			want := mineWith(t, txns, 1, minsup, nil)
			if minsup == 2 && len(want) == 0 {
				t.Fatalf("seed=%d: fixture mined no MFIs", seed)
			}
			for _, workers := range []int{2, 8} {
				got := mineWith(t, txns, workers, minsup, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d minsup=%d workers=%d: parallel MFIs diverge (%d vs %d sets)",
						seed, minsup, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestShardActiveSubsetEquivalence repeats the sweep over active-subset
// mining with incremental frequencies — the exact shape the mfiblocks
// minsup loop drives — so the recount runs over the active subset's mask,
// not the whole database.
func TestShardActiveSubsetEquivalence(t *testing.T) {
	txns := equivTxns(5, 400, 200, 10)
	rng := rand.New(rand.NewSource(99))
	active := make([]int, 0, len(txns))
	for i := range txns {
		if rng.Intn(3) != 0 {
			active = append(active, i)
		}
	}
	freq := make([]int, 201)
	for _, i := range active {
		for _, it := range txns[i] {
			freq[it]++
		}
	}
	for _, minsup := range []int{2, 4} {
		want := mineWith(t, txns, 1, minsup, active)
		for _, workers := range []int{2, 8} {
			if got := mineWith(t, txns, workers, minsup, active); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d workers=%d: active-subset MFIs diverge", minsup, workers)
			}
			m := NewMiner(txns)
			m.Workers = workers
			if got := sortedCopy(m.MineMaximalFreq(minsup, active, freq)); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d workers=%d: MineMaximalFreq diverges", minsup, workers)
			}
		}
	}
}

// TestSupportCountMask pins the support-recount primitive against a
// hand-checked fixture, both whole-database and masked to a subset.
func TestSupportCountMask(t *testing.T) {
	txns := adversarialTxns()
	m := NewMiner(txns)
	idx := m.BuildIndex()
	if got := idx.SupportCount([]int{0, 1}, nil); got != 6 {
		t.Fatalf("SupportCount({0,1}) = %d, want 6", got)
	}
	if got := idx.SupportCount([]int{0, 1, 5}, nil); got != 2 {
		t.Fatalf("SupportCount({0,1,5}) = %d, want 2", got)
	}
	// Mask out one {0,1,5} transaction (index 4) and one {0,1} (index 0).
	active := []int{1, 2, 3, 5, 6, 7, 8, 9}
	mask := idx.ActiveMask(active)
	if got := idx.SupportCount([]int{0, 1}, mask); got != 4 {
		t.Fatalf("masked SupportCount({0,1}) = %d, want 4", got)
	}
	if got := idx.SupportCount([]int{0, 1, 5}, mask); got != 1 {
		t.Fatalf("masked SupportCount({0,1,5}) = %d, want 1", got)
	}
	if idx.ActiveMask(nil) != nil {
		t.Fatal("nil active must yield nil mask")
	}
}
