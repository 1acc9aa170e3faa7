package fpgrowth

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// newMiner builds a miner over a [][]int database, each transaction a
// set of non-negative item ids in any order (Transactions.Append).
func newMiner(transactions [][]int) *Miner {
	return NewMinerTxns(fromSlices(transactions))
}

// fromSlices copies a [][]int database into arena form.
func fromSlices(transactions [][]int) *Transactions {
	total := 0
	for _, txn := range transactions {
		total += len(txn)
	}
	t := NewTransactions(len(transactions), total)
	for _, txn := range transactions {
		t.Append(txn)
	}
	return t
}

// supportsByMask counts, for every subset of the item universe, the
// transactions holding it: sup[mask] is the support of the items at the
// mask's bits, items ascending (exponential; small universes only).
func supportsByMask(txns [][]int) (items, sup []int) {
	universe := map[int]bool{}
	for _, t := range txns {
		for _, it := range t {
			universe[it] = true
		}
	}
	for it := range universe {
		items = append(items, it)
	}
	sort.Ints(items)
	// Each transaction as a mask over the universe's positions.
	masks := make([]int, len(txns))
	for k, t := range txns {
		for _, it := range t {
			masks[k] |= 1 << sort.SearchInts(items, it)
		}
	}
	sup = make([]int, 1<<len(items))
	for mask := range sup {
		for _, t := range masks {
			if t&mask == mask {
				sup[mask]++
			}
		}
	}
	return items, sup
}

// itemsAt returns the items at a mask's bits, ascending.
func itemsAt(items []int, mask int) []int {
	var set []int
	for i, it := range items {
		if mask&(1<<i) != 0 {
			set = append(set, it)
		}
	}
	return set
}

// bruteForce enumerates all frequent itemsets by counting every subset of
// the item universe against the transactions.
func bruteForce(txns [][]int, minsup int) []Itemset {
	items, sup := supportsByMask(txns)
	var out []Itemset
	for mask := 1; mask < len(sup); mask++ {
		if sup[mask] >= minsup {
			out = append(out, Itemset{Items: itemsAt(items, mask), Support: sup[mask]})
		}
	}
	return out
}

// bruteMaximal is the maximal frequent itemsets by definition: a frequent
// set none of whose one-item extensions is frequent. Support is
// anti-monotone, so a set with any frequent proper superset has a frequent
// one-item extension. Sorted canonically, as MineMaximal returns them.
func bruteMaximal(txns [][]int, minsup int) []Itemset {
	items, sup := supportsByMask(txns)
	var out []Itemset
	for mask := 1; mask < len(sup); mask++ {
		if sup[mask] < minsup {
			continue
		}
		maximal := true
		for i := range items {
			if ext := mask | 1<<i; ext != mask && sup[ext] >= minsup {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, Itemset{Items: itemsAt(items, mask), Support: sup[mask]})
		}
	}
	sortCanonical(out)
	return out
}

// mineAll is Mine for inputs that must not fail.
func mineAll(t testing.TB, m *Miner, minsup int, active []int) []Itemset {
	t.Helper()
	out, err := m.Mine(minsup, active)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func canonical(sets []Itemset) map[string]int {
	m := make(map[string]int, len(sets))
	for _, s := range sets {
		m[keyOf(s.Items)] = s.Support
	}
	return m
}

func keyOf(items []int) string {
	b := make([]byte, 0, len(items)*3)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), '|')
	}
	return string(b)
}

func TestMineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nTxn := 2 + rng.Intn(12)
		nItems := 2 + rng.Intn(8)
		txns := make([][]int, nTxn)
		for i := range txns {
			seen := map[int]bool{}
			for k := 0; k < 1+rng.Intn(nItems); k++ {
				seen[rng.Intn(nItems)] = true
			}
			for it := range seen {
				txns[i] = append(txns[i], it)
			}
			sort.Ints(txns[i])
		}
		minsup := 1 + rng.Intn(4)

		want := canonical(bruteForce(txns, minsup))
		got := canonical(mineAll(t, newMiner(txns), minsup, nil))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (minsup=%d, txns=%v):\nwant %d sets\ngot  %d sets\nwant=%v\ngot=%v",
				trial, minsup, txns, len(want), len(got), want, got)
		}
	}
}

func TestMineMaximalProperty(t *testing.T) {
	// Every MFI is frequent, no MFI is subset of another, and every
	// frequent itemset is a subset of some MFI.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTxn := 3 + rng.Intn(10)
		nItems := 3 + rng.Intn(7)
		txns := make([][]int, nTxn)
		for i := range txns {
			seen := map[int]bool{}
			for k := 0; k < 1+rng.Intn(nItems); k++ {
				seen[rng.Intn(nItems)] = true
			}
			for it := range seen {
				txns[i] = append(txns[i], it)
			}
			sort.Ints(txns[i])
		}
		minsup := 1 + rng.Intn(3)
		all := bruteForce(txns, minsup)
		mfis := newMiner(txns).MineMaximal(minsup, nil)

		freq := canonical(all)
		for _, m := range mfis {
			if sup, ok := freq[keyOf(m.Items)]; !ok || sup != m.Support {
				return false
			}
		}
		for i, a := range mfis {
			for j, b := range mfis {
				if i != j && isSubset(a.Items, b.Items) {
					return false
				}
			}
		}
		for _, s := range all {
			covered := false
			for _, m := range mfis {
				if isSubset(s.Items, m.Items) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMineActiveSubset(t *testing.T) {
	txns := [][]int{{0, 1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	m := newMiner(txns)
	// Restricted to the first two transactions, {0,1} has support 2.
	got := mineAll(t, m, 2, []int{0, 1})
	found := false
	for _, s := range got {
		if reflect.DeepEqual(s.Items, []int{0, 1}) && s.Support == 2 {
			found = true
		}
		if s.Support < 2 {
			t.Errorf("itemset %v below minsup", s)
		}
	}
	if !found {
		t.Errorf("expected {0,1} support 2 in %v", got)
	}
}

func TestPruneExcludesItems(t *testing.T) {
	txns := [][]int{{0, 1}, {0, 1}, {0, 1}}
	m := newMiner(txns)
	m.Prune([]int{0})
	for _, s := range mineAll(t, m, 1, nil) {
		for _, it := range s.Items {
			if it == 0 {
				t.Fatalf("pruned item 0 appeared in %v", s)
			}
		}
	}
}

func TestSupportSet(t *testing.T) {
	txns := [][]int{{0, 1}, {0, 1, 2}, {1, 2}, {0, 2}}
	idx := newMiner(txns).BuildIndex()

	got := idx.SupportSet([]int{0, 1})
	if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("SupportSet({0,1}) = %v, want %v", got, want)
	}

	if got := idx.SupportSet([]int{5}); got != nil {
		t.Errorf("unknown item support = %v, want nil", got)
	}
	if got := idx.SupportSet(nil); got != nil {
		t.Errorf("empty itemset support = %v, want nil", got)
	}
	if got := idx.SupportSet([]int{0, 1, 2}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("SupportSet({0,1,2}) = %v, want [1]", got)
	}
}

func TestSupportSetMatchesMinedSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	txns := make([][]int, 40)
	for i := range txns {
		seen := map[int]bool{}
		for k := 0; k < 1+rng.Intn(6); k++ {
			seen[rng.Intn(10)] = true
		}
		for it := range seen {
			txns[i] = append(txns[i], it)
		}
		sort.Ints(txns[i])
	}
	m := newMiner(txns)
	idx := m.BuildIndex()
	for _, s := range mineAll(t, m, 2, nil) {
		if got := len(idx.SupportSet(s.Items)); got != s.Support {
			t.Errorf("itemset %v: index support %d != mined support %d", s.Items, got, s.Support)
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if got := mineAll(t, newMiner(nil), 2, nil); len(got) != 0 {
		t.Errorf("empty db mined %v", got)
	}
	if got := mineAll(t, newMiner([][]int{{}}), 1, nil); len(got) != 0 {
		t.Errorf("empty txn mined %v", got)
	}
	// minsup below 1 is clamped to 1.
	got := mineAll(t, newMiner([][]int{{3}}), 0, nil)
	if len(got) != 1 || got[0].Support != 1 {
		t.Errorf("clamped minsup mined %v", got)
	}
}

// TestSinglePathCombinations exercises the single-path fast path at a size
// where full enumeration is checkable: a 16-item chain yields exactly
// 2^16-1 itemsets, each with the support of its deepest item.
func TestSinglePathCombinations(t *testing.T) {
	path := make([]int, 16)
	for i := range path {
		path[i] = i
	}
	got := mineAll(t, newMiner([][]int{path}), 1, nil)
	if want := 1<<16 - 1; len(got) != want {
		t.Fatalf("single path mined %d itemsets, want %d", len(got), want)
	}
	for _, s := range got {
		if s.Support != 1 {
			t.Fatalf("itemset %v has support %d, want 1", s.Items, s.Support)
		}
	}
}

// TestEmitPathCombinationsOverflowGuard: a chain of n nested ranks under
// an itemset of s items implies 2^n-1 itemsets, and Mine refuses to
// enumerate them once s+n passes 62 (the historical `1 << len(path)` mask
// overflowed int at 63 path nodes and silently emitted nothing). A lone
// 70-item transaction is refused, and so is a 63-item one: its deepest
// rank's chain is the other 62 ranks, so a bound on the chain alone would
// set out to enumerate 2^62 itemsets.
func TestEmitPathCombinationsOverflowGuard(t *testing.T) {
	for _, n := range []int{70, 63} {
		long := make([]int, n)
		for i := range long {
			long[i] = i
		}
		got, err := newMiner([][]int{long}).Mine(1, nil)
		if err == nil || !strings.Contains(err.Error(), "refusing to enumerate") {
			t.Fatalf("Mine over a %d-item single path: err = %v, want a refusal", n, err)
		}
		if got != nil {
			t.Fatalf("Mine over a %d-item single path returned %d itemsets alongside its error", n, len(got))
		}
	}
}

// TestMineMaximalLongSinglePath: maximal mining never enumerates path
// combinations, so the same 70-item chain must mine fine — one MFI, the
// full path.
func TestMineMaximalLongSinglePath(t *testing.T) {
	long := make([]int, 70)
	for i := range long {
		long[i] = i
	}
	got := newMiner([][]int{long, long}).MineMaximal(2, nil)
	if len(got) != 1 || len(got[0].Items) != 70 || got[0].Support != 2 {
		t.Fatalf("long-path MFI = %v, want one 70-item set with support 2", got)
	}
}

func TestFilterMaximalKeepsLongest(t *testing.T) {
	in := []Itemset{
		{Items: []int{1}, Support: 5},
		{Items: []int{1, 2}, Support: 3},
		{Items: []int{1, 2, 3}, Support: 2},
		{Items: []int{4}, Support: 2},
	}
	out := FilterMaximal(in)
	if len(out) != 2 {
		t.Fatalf("got %v, want 2 maximal sets", out)
	}
	if !reflect.DeepEqual(out[0].Items, []int{1, 2, 3}) || !reflect.DeepEqual(out[1].Items, []int{4}) {
		t.Errorf("maximal sets = %v", out)
	}
}
