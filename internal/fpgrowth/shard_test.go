package fpgrowth

import (
	"math/rand"
	"reflect"
	"testing"
)

// adversarialTxns is a hand-built database where the shard cut falls
// between {0,1} (owned by the low-rank shard) and item 5 (owned by the
// high-rank shard) under two balanced shards: {0,1} is maximal within
// shard 0 — shard 0 never mines item 5 as a top-level suffix — but at
// minsup 2 it is subsumed globally by {0,1,5}, which only shard 1 can
// mine. The cross-store merge must reconcile them.
//
// Item frequencies: 0:6, 1:6, 2:3, 3:3, 4:2, 5:2 → ranks 0..5 in item
// order; total mass 22, so the 2-shard boundary lands after rank 1.
func adversarialTxns() [][]int {
	return [][]int{
		{0, 1}, {0, 1}, {0, 1}, {0, 1},
		{0, 1, 5}, {0, 1, 5},
		{2, 3}, {2, 3}, {2, 4}, {3, 4},
	}
}

func mineWith(t *testing.T, txns [][]int, shards, workers, minsup int, active []int, verify bool) []Itemset {
	t.Helper()
	m := NewMiner(txns)
	m.Shards = shards
	m.Workers = workers
	m.SelfVerify = verify
	return m.MineMaximal(minsup, active)
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
// cross-shard merge exists for: an itemset maximal within its shard but
// subsumed by a superset mined in another shard must not survive, and
// the sharded output must be byte-identical to the monolithic one at
// every minsup level (at minsup 3 the superset {0,1,5} drops below
// support and {0,1} becomes globally maximal — the merge must keep it).
func TestShardMergeRestoresGlobalMaximality(t *testing.T) {
	txns := adversarialTxns()
	for minsup := 2; minsup <= 5; minsup++ {
		want := mineWith(t, txns, 1, 1, minsup, nil, false)
		for _, shards := range []int{2, 3, 8, 64} {
			got := mineWith(t, txns, shards, 1, minsup, nil, true)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d shards=%d: sharded MFIs diverge\nwant %v\ngot  %v",
					minsup, shards, want, got)
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
}

// TestShardEquivalenceRandomized sweeps mining shards × workers × seeds
// × minsup over contested random databases, asserting byte-identical
// MFIs against the serial monolithic path, with lazy index verification
// recounting every merged support.
func TestShardEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		txns := equivTxns(seed, 600, 300, 12)
		for _, minsup := range []int{2, 3, 5} {
			want := mineWith(t, txns, 1, 1, minsup, nil, false)
			if minsup == 2 && len(want) == 0 {
				t.Fatalf("seed=%d: fixture mined no MFIs", seed)
			}
			for _, shards := range []int{2, 4, 8} {
				for _, workers := range []int{1, 2, 8} {
					got := mineWith(t, txns, shards, workers, minsup, nil, true)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed=%d minsup=%d shards=%d workers=%d: sharded MFIs diverge (%d vs %d sets)",
							seed, minsup, shards, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestShardActiveSubsetEquivalence repeats the sweep over active-subset
// mining with incremental frequencies — the exact shape the mfiblocks
// minsup loop drives — so the verification mask path (recounting over
// the active subset, not the whole database) is exercised too.
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
		serial := NewMiner(txns)
		serial.Workers = 1
		want := serial.MineMaximal(minsup, active)
		for _, shards := range []int{2, 8} {
			m := NewMiner(txns)
			m.Shards = shards
			m.SelfVerify = true
			if got := m.MineMaximal(minsup, active); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d shards=%d: active-subset sharded MFIs diverge", minsup, shards)
			}
			if got := m.MineMaximalFreq(minsup, active, freq); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d shards=%d: sharded MineMaximalFreq diverges", minsup, shards)
			}
		}
	}
}

// TestShardBounds pins the partition's invariants: monotone boundaries
// covering [0, len(order)) exactly, stable under shards > items (excess
// shards collapse to empty ranges at the tail).
func TestShardBounds(t *testing.T) {
	counts := []int{6, 6, 3, 3, 2, 2}
	order := []int{0, 1, 2, 3, 4, 5}
	for _, shards := range []int{1, 2, 3, 6, 64} {
		bounds := shardBounds(counts, order, 22, shards)
		if len(bounds) != shards+1 {
			t.Fatalf("shards=%d: %d bounds", shards, len(bounds))
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(order) {
			t.Fatalf("shards=%d: bounds %v do not cover the rank range", shards, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("shards=%d: non-monotone bounds %v", shards, bounds)
			}
		}
	}
	two := shardBounds(counts, order, 22, 2)
	if two[1] != 2 {
		t.Fatalf("2-shard boundary = %d, want 2 (mass-balanced after ranks 0-1)", two[1])
	}
}

// TestSupportCountMask pins the lazy-verification primitive against a
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
