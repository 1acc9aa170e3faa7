package fpgrowth

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/telemetry/trace"
)

// minedStores replays the front half of MineMaximal — rank arena,
// top-item fan-out under m.Workers — and returns the finished worker
// stores in worker order with the rank -> item order.
func minedStores(m *Miner, minsup int) ([]*mfiStore, []int) {
	a, _ := m.rankArena(minsup, nil, nil)
	return m.mineTops(nil, a, minsup), a.order
}

// assertSupports recounts every mined itemset's support over the active
// transactions (nil = all) against the inverted index: the merge must
// hand each survivor on with its exact support.
func assertSupports(t *testing.T, txns [][]int, sets []Itemset, active []int) {
	t.Helper()
	idx := newMiner(txns).BuildIndex()
	mask := idx.ActiveMask(active)
	for _, s := range sets {
		if got := idx.SupportCount(s.Items, mask); got != s.Support {
			t.Fatalf("support mismatch for %v: mined %d, index recounts %d", s.Items, s.Support, got)
		}
	}
}

// mineWith mines through the public entry point at the given worker
// count and recounts every returned support.
func mineWith(t *testing.T, txns [][]int, workers, minsup int, active []int) []Itemset {
	t.Helper()
	m := newMiner(txns)
	m.Workers = workers
	out := m.MineMaximal(minsup, active)
	assertSupports(t, txns, out, active)
	return out
}

// sortedCopy returns a canonically sorted copy of sets: the order
// MineMaximal returns, to compare the store order of finishMaximal and
// MineMaximalFreq against.
func sortedCopy(sets []Itemset) []Itemset {
	out := slices.Clone(sets)
	sortCanonical(out)
	return out
}

// sweepStores is the merge the cross-store check replaced, kept as its
// oracle: every stored set of every store through the longest-first
// filterMaximal sweep, then the same translation, sorted canonically.
func sweepStores(stores []*mfiStore, order []int) []Itemset {
	var sets [][]int32
	var supports []int
	for _, s := range stores {
		sets = append(sets, storedSets(s)...)
		supports = append(supports, s.supports...)
	}
	var out []Itemset
	for _, k := range filterMaximal(sets, len(order)) {
		items := make([]int, len(sets[k]))
		for j, r := range sets[k] {
			items[j] = order[r]
		}
		sort.Ints(items)
		out = append(out, Itemset{Items: items, Support: supports[k]})
	}
	sortCanonical(out)
	return out
}

// TestCrossStoreMergeMatchesSweep holds finishMaximal's cross-store merge
// against the filterMaximal sweep it replaced, the public entry point
// (every survivor's support recounted) and, where the item universe is
// small enough to enumerate, brute force — over seeds × minsup × workers.
// The merge runs twice over the same stores: equal results mean it is
// deterministic and left the stores as it found them.
func TestCrossStoreMergeMatchesSweep(t *testing.T) {
	type fixture struct {
		name  string
		txns  [][]int
		brute bool
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 3; seed++ {
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("dense/seed%d", seed), denseTxns(seed, 40, 3, 13), true},
			fixture{fmt.Sprintf("contested/seed%d", seed), equivTxns(seed, 400, 200, 10), false})
	}
	died := 0
	for _, fx := range fixtures {
		for _, minsup := range []int{2, 3, 5} {
			var truth []Itemset
			if fx.brute {
				truth = bruteMaximal(fx.txns, minsup)
			}
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s minsup=%d workers=%d", fx.name, minsup, workers)
				m := newMiner(fx.txns)
				m.Workers = workers
				stores, order := minedStores(m, minsup)
				want := sweepStores(stores, order)
				// The merge returns store order; the sets and supports are
				// what must match, and the order must repeat.
				var first []Itemset
				for run := 0; run < 2; run++ {
					got := m.finishMaximal(nil, stores, order)
					if run > 0 && !reflect.DeepEqual(got, first) {
						t.Fatalf("%s: the merge's store order changed between runs", name)
					}
					first = got
					if got := sortedCopy(got); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s run %d: cross-store merge kept %d sets, the sweep %d", name, run, len(got), len(want))
					}
				}
				if got := mineWith(t, fx.txns, workers, minsup, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MineMaximal returned %d sets, the sweep %d", name, len(got), len(want))
				}
				if fx.brute && !reflect.DeepEqual(truth, want) {
					t.Fatalf("%s: brute force finds %d MFIs, the sweep %d", name, len(truth), len(want))
				}
				if len(stores) == 1 && stores[0].len() != len(want) {
					t.Fatalf("%s: a lone store holds %d sets but %d are maximal", name, stores[0].len(), len(want))
				}
				for _, s := range stores {
					died += s.len()
				}
				died -= len(want)
			}
		}
	}
	if died == 0 {
		t.Fatal("no stored set was subsumed across stores anywhere in the matrix: the merge was never exercised")
	}
}

// mergeSpans runs mine — calls through m — under a fresh tracer and
// returns the maximal_merge span of every call, in call order.
func mergeSpans(m *Miner, mine func()) []*trace.Node {
	tr := trace.New()
	root := tr.StartSpan(nil, "test")
	m.Trace = root
	mine()
	root.End()
	var merges []*trace.Node
	for _, mine := range tr.Tree(trace.Full).Roots[0].Children {
		for _, c := range mine.Children {
			if c.Name == "maximal_merge" {
				merges = append(merges, c)
			}
		}
	}
	return merges
}

// TestConditionalTreeBuiltOnlyOnMiss pins the count-first order of
// mineItem on a fixed fixture mined serially: a conditional projection
// (once a tree, now bitmaps) is built only for the header items whose
// head-union-tail test missed, as the maximal_merge span's header_items
// and cond_trees attrs count them. The MFI count and hash were recorded at the commit that
// still built a tree for every header item (and threw 81% of them away
// here), and held when closure folding took 29,396 visits and 5,695
// misses down to the goldens below. focus_scanned, the focus-list entries
// the head-union-tail tests visited, was 145,817 when depth 1 scanned all
// of lists[1]; its depth-1 buckets leave the goldens above as they were.
func TestConditionalTreeBuiltOnlyOnMiss(t *testing.T) {
	const (
		goldenVisited = 23022
		goldenMisses  = 4363
		goldenMFIs    = 579
		goldenHash    = 0xd6ab438221668c4e
		goldenScanned = 95446
	)
	m := newMiner(denseTxns(29, 600, 100, 48))
	m.Workers = 1
	var got []Itemset
	merges := mergeSpans(m, func() { got = m.MineMaximal(2, nil) })
	h := fnv.New64a()
	for _, s := range got {
		fmt.Fprintln(h, s.Items, s.Support)
	}
	if len(got) != goldenMFIs || h.Sum64() != goldenHash {
		t.Fatalf("mined %d MFIs hashing to %#x, golden is %d and %#x", len(got), h.Sum64(), goldenMFIs, uint64(goldenHash))
	}
	if len(merges) != 1 {
		t.Fatalf("%d maximal_merge spans for one call", len(merges))
	}
	if v := merges[0].Attrs["header_items"]; v != goldenVisited {
		t.Fatalf("visited %d header items, golden is %d", v, goldenVisited)
	}
	if trees := merges[0].Attrs["cond_trees"]; trees != goldenMisses {
		t.Fatalf("took %d conditional projections, golden is %d focus misses", trees, goldenMisses)
	}
	if scanned := merges[0].Attrs["focus_scanned"]; scanned != goldenScanned {
		t.Fatalf("focus visited %d list entries, golden is %d", scanned, goldenScanned)
	}
}

// TestClosureFolds: the deep-recursion dense fixture folds a closure into
// the suffix on a focus miss at depth 0 and at depth two and beyond, so
// the store's multi-rank groups are exercised at the root and under a
// stack of them — and the serially mined store still holds exactly the
// brute-force MFIs.
func TestClosureFolds(t *testing.T) {
	txns := denseTxns(3, 40, 3, 13)
	a, _ := newMiner(txns).rankArena(2, nil, nil)
	order := a.order
	ctx := newMineCtx(order, 2)
	ctx.store = newMFIStore(len(order))
	for r := len(order) - 1; r >= 0; r-- {
		ctx.mineItem(a, int32(r))
	}
	if ctx.folds[0] == 0 || ctx.folds[2] == 0 {
		t.Fatalf("folds at depth 0, 1, ≥2 = %v: the fixture no longer folds at depth 0 and ≥ 2", ctx.folds)
	}
	want := bruteMaximal(txns, 2)
	if got := sweepStores([]*mfiStore{ctx.store}, order); !reflect.DeepEqual(got, want) {
		t.Fatalf("folded store holds\n%v\nbrute force finds\n%v", got, want)
	}
	if ctx.store.len() != len(want) {
		t.Fatalf("folded store holds %d sets, %d are maximal", ctx.store.len(), len(want))
	}
}

// TestMergeTimedOncePerCall: every mining call at every worker count —
// the lone-store call included — hangs one maximal_merge span under its
// mine span.
func TestMergeTimedOncePerCall(t *testing.T) {
	txns := equivTxns(11, 300, 150, 10)
	for _, workers := range []int{1, 2} {
		m := newMiner(txns)
		m.Workers = workers
		merges := mergeSpans(m, func() {
			m.MineMaximal(3, nil)
			m.MineMaximal(2, nil)
		})
		if len(merges) != 2 {
			t.Fatalf("workers=%d: %d maximal_merge spans under 2 mine spans", workers, len(merges))
		}
	}
}
