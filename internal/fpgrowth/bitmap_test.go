package fpgrowth

import (
	"fmt"
	"reflect"
	"testing"
)

// mineSerial mines txns at minsup on one mining context, top-level header
// items deepest-first as a lone worker does, and returns the context and
// the rank -> item order. tree projects every miss as a conditional
// FP-tree (treeform_test.go), the reference the bitmap form is held to.
func mineSerial(txns [][]int, minsup int, tree bool) (*mineCtx, []int) {
	a, _ := newMiner(txns).rankArena(minsup, nil, nil)
	tc := newTreeCtx(a.order, minsup)
	ctx := tc.mineCtx
	ctx.store = newMFIStore(len(a.order))
	for r := len(a.order) - 1; r >= 0; r-- {
		if tree {
			tc.mineItemTree(a, int32(r), 0)
		} else {
			ctx.mineItem(a, int32(r))
		}
	}
	return ctx, a.order
}

// mixedTxns is the dense fixture plus three sparse items over 13–15:
// item 13 is in 150 transactions, three of them with 14 and three with
// 15, which stand alone in 200 more each. 13's projection is two sparse
// rows of three words over 150 windows holding six rank occurrences;
// every dense item's fits in one word per rank.
func mixedTxns() [][]int {
	txns := denseTxns(3, 40, 3, 13)
	for i := 0; i < 150; i++ {
		switch {
		case i < 3:
			txns = append(txns, []int{13, 14})
		case i < 6:
			txns = append(txns, []int{13, 15})
		default:
			txns = append(txns, []int{13})
		}
	}
	for i := 0; i < 200; i++ {
		txns = append(txns, []int{14}, []int{15})
	}
	return txns
}

// TestProjectionFormsAgree holds the bitmap projection to the conditional
// FP-tree it replaces below a focus miss: mined serially, the stores
// hold the same sets with the same supports in the same order, the
// header items, projections, focus-list entries and closure folds count
// the same, and both forms' sets are the brute-force MFIs where the
// universe is small enough to enumerate. Across the fixtures the
// nested-chain test stores a chain of two or more ranks, and bitmap nodes
// count by scanning their windows as well as by popcount.
func TestProjectionFormsAgree(t *testing.T) {
	fixtures := []struct {
		name   string
		txns   [][]int
		minsup int
		brute  bool
	}{
		{"dense", denseTxns(3, 40, 3, 13), 2, true},
		{"mixed", mixedTxns(), 2, true},
		{"golden", denseTxns(29, 600, 100, 48), 2, false},
		{"contested", equivTxns(5, 2000, 300, 12), 2, false},
		{"contested", equivTxns(5, 2000, 300, 12), 5, false},
	}
	var chains, scans int64
	for _, fx := range fixtures {
		name := fmt.Sprintf("%s minsup=%d", fx.name, fx.minsup)
		bits, order := mineSerial(fx.txns, fx.minsup, false)
		tree, _ := mineSerial(fx.txns, fx.minsup, true)
		if tree.chains != 0 || tree.scans != 0 {
			t.Fatalf("%s: the tree reference mined %d bitmap chains and %d window scans", name, tree.chains, tree.scans)
		}
		b, r := bits.store, tree.store
		if !reflect.DeepEqual(b.ranks, r.ranks) || !reflect.DeepEqual(b.offs, r.offs) || !reflect.DeepEqual(b.supports, r.supports) {
			t.Fatalf("%s: the bitmap form stored %d sets, the tree form %d, or not the same ones in the same order", name, b.len(), r.len())
		}
		got := [4]int64{bits.visited, bits.trees, b.scanned, bits.folds[0] + bits.folds[1] + bits.folds[2]}
		want := [4]int64{tree.visited, tree.trees, r.scanned, tree.folds[0] + tree.folds[1] + tree.folds[2]}
		if got != want {
			t.Fatalf("%s: (visited, projections, scanned, folds) = %v, the tree form counts %v", name, got, want)
		}
		if fx.brute {
			truth := bruteMaximal(fx.txns, fx.minsup)
			if sets := sweepStores([]*mfiStore{b}, order); !reflect.DeepEqual(sets, truth) {
				t.Fatalf("%s: the bitmap form holds %d sets, brute force finds %d MFIs", name, len(sets), len(truth))
			}
		}
		if fx.name == "dense" && bits.scans != 0 {
			t.Fatalf("%s: %d nodes scanned their windows; one-word rows count by popcount", name, bits.scans)
		}
		chains += bits.chains
		scans += bits.scans
	}
	if chains == 0 {
		t.Fatal("no fixture stored a nested chain of two or more ranks")
	}
	if scans == 0 {
		t.Fatal("no bitmap node counted by scanning its windows")
	}
}
