package fpgrowth

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestRepeatedItemCountsOnce: a transaction is a set, so a repeated item
// id counts once — in the arena, in both miners and in the index.
func TestRepeatedItemCountsOnce(t *testing.T) {
	txns := [][]int{{1, 1, 2}, {1, 2}, {1, 2, 3}, {3, 4}}
	sets := [][]int{{1, 2}, {1, 2}, {1, 2, 3}, {3, 4}}
	m := newMiner(txns)
	want := []Itemset{{Items: []int{1, 2}, Support: 3}, {Items: []int{3}, Support: 2}}
	if got := m.MineMaximal(2, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineMaximal = %v, want %v", got, want)
	}
	all, err := m.Mine(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(all), canonical(bruteForce(sets, 2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Mine = %v, want %v", got, want)
	}
	if got := m.BuildIndex().SupportSet([]int{1}); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("SupportSet({1}) = %v, want [0 1 2]", got)
	}

	// The arena stores every transaction ascending and duplicate-free,
	// and leaves one that already is as it came.
	arena := fromSlices([][]int{{5, 3, 5, 1}, {1, 3, 5}, {}, {7, 7}})
	for i, want := range [][]int32{{1, 3, 5}, {1, 3, 5}, {}, {7}} {
		if got := arena.Txn(i); !slices.Equal(got, want) {
			t.Fatalf("Txn(%d) = %v, want %v", i, got, want)
		}
	}
	if len(arena.items) != 7 || arena.MaxItem() != 7 {
		t.Fatalf("%d items, MaxItem() = %d; want 7 and 7", len(arena.items), arena.MaxItem())
	}
}

// treeShape lists t's nodes as (root path, count), sorted: the tree
// independent of the order its paths were inserted in.
func treeShape(t *flatTree) []string {
	var out []string
	var walk func(n int32, path []int32)
	walk = func(n int32, path []int32) {
		for c := t.child[n]; c != -1; c = t.sibling[c] {
			p := append(slices.Clip(path), t.item[c])
			out = append(out, fmt.Sprint(p, t.count[c]))
			walk(c, p)
		}
	}
	walk(0, nil)
	sort.Strings(out)
	return out
}

// treeTops is mineTops over a root FP-tree instead of the rank arena, in
// the conditional tree form at every depth (treeform_test.go): the same
// round-robin share per worker, mined serially.
func treeTops(tree *flatTree, order []int, minsup, workers int) []*mfiStore {
	workers = max(min(workers, len(order)), 1)
	stores := make([]*mfiStore, workers)
	for w := range stores {
		ctx := newTreeCtx(order, minsup)
		ctx.store = newMFIStore(len(order))
		for i := w; i < len(order); i += workers {
			ctx.mineItemTree(tree, int32(len(order)-1-i), 0)
		}
		ctx.store.visited, ctx.store.trees = ctx.visited, ctx.trees
		stores[w] = ctx.store
	}
	return stores
}

// TestRankArenaMatchesRootTree holds the rank arena to the root FP-tree
// it replaces at FPmax's top level, built from the same transactions
// under the same ranking: for every rank, the same support, the same
// conditional counts and the same depth-1 conditional tree. Over 1, 2
// and 8 workers, mineTops on the arena (bitmap projections below it) and
// the tree form on the root tree fill the same stores, set for set in the
// same order, with the same visit, projection and focus-scan counts. Covered:
// all transactions and an active subset, pruned items, and the counts
// handed in as MineMaximalFreq's freq.
func TestRankArenaMatchesRootTree(t *testing.T) {
	fixtures := map[string][][]int{
		"sparse": equivTxns(7, 400, 60, 12),
		"dense":  denseTxns(3, 300, 6, 30),
	}
	for name, txns := range fixtures {
		rng := rand.New(rand.NewSource(5))
		var subset []int
		for i := range txns {
			if rng.Intn(3) > 0 {
				subset = append(subset, i)
			}
		}
		// The two most frequent items are the ones to prune.
		all := make([]int, 64)
		for _, txn := range txns {
			for _, it := range txn {
				all[it]++
			}
		}
		byFreq := make([]int, len(all))
		for i := range byFreq {
			byFreq[i] = i
		}
		sort.SliceStable(byFreq, func(i, j int) bool { return all[byFreq[i]] > all[byFreq[j]] })
		cases := []struct {
			name   string
			active []int
			prune  []int
			freq   bool
		}{
			{"all", nil, nil, false},
			{"active", subset, nil, false},
			{"pruned", nil, byFreq[:2], false},
			{"freq", subset, byFreq[:2], true},
		}
		for _, c := range cases {
			for _, minsup := range []int{2, 5} {
				label := fmt.Sprintf("%s/%s/minsup %d", name, c.name, minsup)
				m := newMiner(txns)
				m.Prune(c.prune)
				var freq []int
				if c.freq {
					freq = make([]int, m.maxItem+1)
					m.txns.forEachActive(c.active, func(txn []int32) {
						for _, it := range txn {
							freq[it]++
						}
					})
				}
				checkArenaAgainstTree(t, label, m, c.active, freq, minsup)
			}
		}
	}
}

func checkArenaAgainstTree(t *testing.T, label string, m *Miner, active, freq []int, minsup int) {
	t.Helper()
	a, err := m.rankArena(minsup, active, freq)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if freq != nil {
		if plain, _ := m.rankArena(minsup, active, nil); !reflect.DeepEqual(a, plain) {
			t.Fatalf("%s: the arena built from freq differs from the one that counts", label)
		}
	}
	// The reference ranking and root tree, from the transactions.
	counts := make([]int, m.maxItem+1)
	m.txns.forEachActive(active, func(txn []int32) {
		for _, it := range txn {
			counts[it]++
		}
	})
	var order []int
	for it, c := range counts {
		if c >= minsup && !m.isPruned(it) {
			order = append(order, it)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	if !slices.Equal(a.order, order) {
		t.Fatalf("%s: arena order %v, want %v", label, a.order, order)
	}
	rankOf := map[int32]int32{}
	for r, it := range order {
		rankOf[int32(it)] = int32(r)
	}
	tree := newFlatTree(len(order), 0)
	m.txns.forEachActive(active, func(txn []int32) {
		var path []int32
		for _, it := range txn {
			if r, ok := rankOf[it]; ok {
				path = append(path, r)
			}
		}
		slices.Sort(path)
		if len(path) > 0 {
			tree.insertPath(path, 1)
		}
	})
	if got, want := treeShape(rootTree(a)), treeShape(tree); !slices.Equal(got, want) {
		t.Fatalf("%s: the arena's rows build a different root tree", label)
	}
	if nodes, items := m.TreeStats(minsup, active); nodes != len(tree.item)-1 || items != len(order) {
		t.Fatalf("%s: TreeStats = %d nodes, %d items; the root tree has %d and %d", label, nodes, items, len(tree.item)-1, len(order))
	}

	ca, ct := newTreeCtx(order, minsup), newTreeCtx(order, minsup)
	for r := int32(0); r < int32(len(order)); r++ {
		if a.support(r) != tree.support(r) {
			t.Fatalf("%s: rank %d: support %d, tree has %d", label, r, a.support(r), tree.support(r))
		}
		tailA := slices.Clone(ca.conditionalCounts(a, r))
		tailT := slices.Clone(ct.conditionalCounts(tree, r))
		slices.Sort(tailA)
		slices.Sort(tailT)
		if !slices.Equal(tailA, tailT) || !slices.Equal(ca.condCnt, ct.condCnt) {
			t.Fatalf("%s: rank %d: conditional counts %v (tail %v), tree gives %v (tail %v)",
				label, r, ca.condCnt, tailA, ct.condCnt, tailT)
		}
		condA, condT := ca.getTree(), ct.getTree()
		ca.buildConditional(a, r, condA)
		ct.buildConditional(tree, r, condT)
		if got, want := treeShape(condA), treeShape(condT); !slices.Equal(got, want) {
			t.Fatalf("%s: rank %d: depth-1 tree\n%v\nfrom the tree\n%v", label, r, got, want)
		}
		ca.putTree(condA)
		ct.putTree(condT)
	}

	for _, workers := range []int{1, 2, 8} {
		m.Workers = workers
		got, want := m.mineTops(nil, a, minsup), treeTops(tree, order, minsup, workers)
		if len(got) != len(want) {
			t.Fatalf("%s: workers %d: %d stores, the tree fills %d", label, workers, len(got), len(want))
		}
		for w := range got {
			gotSets, wantSets := storedSets(got[w]), storedSets(want[w])
			if !reflect.DeepEqual(gotSets, wantSets) || !slices.Equal(got[w].supports, want[w].supports) ||
				got[w].visited != want[w].visited || got[w].trees != want[w].trees || got[w].scanned != want[w].scanned {
				t.Fatalf("%s: workers %d: store %d holds %v (visited %d, trees %d, scanned %d), the tree's %v (visited %d, trees %d, scanned %d)",
					label, workers, w, gotSets, got[w].visited, got[w].trees, got[w].scanned, wantSets, want[w].visited, want[w].trees, want[w].scanned)
			}
		}
	}
}

// TestStaleFreqIsAnError: frequencies that do not count the active
// transactions — one item counted once too often, one once too rarely
// (which used to write past its windows) — make MineMaximalFreq return an
// error naming the item, before any mining goroutine starts, instead of
// panicking.
func TestStaleFreqIsAnError(t *testing.T) {
	txns := equivTxns(3, 200, 40, 8)
	active := make([]int, 0, len(txns))
	for i := 0; i < len(txns); i += 2 {
		active = append(active, i)
	}
	freq := make([]int, 40)
	for _, i := range active {
		for _, it := range txns[i] {
			freq[it]++
		}
	}
	// The most frequent item is surely ranked at minsup 2.
	top := 0
	for it, n := range freq {
		if n > freq[top] {
			top = it
		}
	}
	for _, delta := range []int{+1, -1} {
		stale := slices.Clone(freq)
		stale[top] += delta
		m := newMiner(txns)
		m.Workers = 4
		before := runtime.NumGoroutine()
		got, err := m.MineMaximalFreq(2, active, stale)
		if err == nil || got != nil {
			t.Fatalf("freq[%d] off by %+d: MineMaximalFreq returned %d sets and error %v", top, delta, len(got), err)
		}
		if want := fmt.Sprintf("freq[%d] = %d", top, stale[top]); !strings.Contains(err.Error(), want) {
			t.Fatalf("freq[%d] off by %+d: error %q does not say %q", top, delta, err, want)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("freq[%d] off by %+d: %d goroutines before the call, %d after", top, delta, before, after)
		}
		if _, err := m.MineMaximalFreq(2, active, freq); err != nil {
			t.Fatalf("the true counts fail after a stale call: %v", err)
		}
	}
}
