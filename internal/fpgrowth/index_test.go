package fpgrowth

import (
	"slices"
	"testing"
)

// ActiveMask and SupportCount are the support-recount primitive the
// equivalence tests check mined supports with. They live here because no
// library code has called them since the miner stopped recounting.

// ActiveMask returns a transaction bitset with the active indices set —
// the mask SupportCount needs to recount supports over a mined subset.
// A nil active set (meaning "all transactions") returns a nil mask.
func (x *Index) ActiveMask(active []int) []uint64 {
	if active == nil {
		return nil
	}
	mask := make([]uint64, (x.txns.Len()+63)/64)
	for _, ti := range active {
		mask[ti>>6] |= 1 << uint(ti&63)
	}
	return mask
}

// SupportCount returns how many transactions in mask (nil = all) contain
// every item of the itemset — an exact recount of a mined support against
// the index, independent of the FP-tree.
func (x *Index) SupportCount(items []int, mask []uint64) int {
	set := x.SupportSet(items)
	if mask == nil {
		return len(set)
	}
	n := 0
	for _, ti := range set {
		if mask[ti>>6]&(1<<uint(ti&63)) != 0 {
			n++
		}
	}
	return n
}

// TestRarestFirstOrder pins the order materialization groups by: ascending
// posting length, ties by item id, absent items first.
func TestRarestFirstOrder(t *testing.T) {
	// Posting lengths: item 0 → 3, 1 → 1, 2 → 3, 3 → 0 (absent), 4 → 1.
	txns := [][]int{{0, 1, 2}, {0, 2}, {0, 2, 4}}
	idx := newMiner(txns).BuildIndex()
	if got, want := idx.order, []int32{3, 1, 4, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for r, it := range idx.order {
		if idx.Rank(int(it)) != int32(r) {
			t.Fatalf("Rank(%d) = %d, want %d", it, idx.Rank(int(it)), r)
		}
	}
	// Posting reads by rank: rank 3 is item 0, held by every transaction.
	if got, want := idx.Posting(3), []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("Posting(3) = %v, want %v", got, want)
	}
}
