package fpgrowth

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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
	mask := make([]uint64, x.words)
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

// mapSupport is the reference every index path is checked against: a
// linear scan of the database with a map per transaction (containsAll).
func mapSupport(txns [][]int, items []int) []int {
	var out []int
	for ti, txn := range txns {
		if containsAll(txn, items) {
			out = append(out, ti)
		}
	}
	return out
}

// TestRarestFirstOrder pins the order the walk depends on: ascending
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
	if got, want := idx.RankSeq(nil, []int{0, 2, 4}), []int32{2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("RankSeq = %v, want %v", got, want)
	}
}

// TestDenseRule pins the bitset rule on both sides of the boundary: an
// item is dense exactly when its posting list is at least as long as the
// bitset (floor denseBitsetFloor), so bitsets never outweigh postings.
func TestDenseRule(t *testing.T) {
	const nTxn = 64 * 100 // words = 100
	txns := make([][]int, nTxn)
	for ti := range txns {
		txns[ti] = []int{0}
		if ti < 100 {
			txns[ti] = append(txns[ti], 1) // len == words: dense
		}
		if ti < 99 {
			txns[ti] = append(txns[ti], 2) // len == words-1: sparse
		}
	}
	idx := newMiner(txns).BuildIndex()
	if idx.bits[0] == nil || idx.bits[1] == nil || idx.bits[2] != nil {
		t.Fatalf("dense = %v/%v/%v, want true/true/false", idx.bits[0] != nil, idx.bits[1] != nil, idx.bits[2] != nil)
	}
	var postingBytes, bitBytes int
	for it := range idx.postings {
		postingBytes += 8 * len(idx.postings[it])
		bitBytes += 8 * len(idx.bits[it])
	}
	if bitBytes > postingBytes {
		t.Fatalf("bitsets hold %d bytes, postings %d", bitBytes, postingBytes)
	}

	// Below the floor nothing is dense, however common.
	small := newMiner([][]int{{0}, {0}, {0}}).BuildIndex()
	if small.bits[0] != nil {
		t.Fatal("an item of a 3-transaction database carries a bitset")
	}
}

// walkerTxns builds a database whose items straddle the dense boundary
// and tie in posting length.
func walkerTxns(rng *rand.Rand, nTxn int) [][]int {
	txns := make([][]int, nTxn)
	for ti := range txns {
		seen := map[int]bool{rng.Intn(3): true}
		for k := 0; k < 2+rng.Intn(5); k++ {
			seen[3+rng.Intn(60)] = true
		}
		if rng.Intn(16) == 0 {
			seen[100+rng.Intn(30)] = true
		}
		for it := range seen {
			txns[ti] = append(txns[ti], it)
		}
		sort.Ints(txns[ti])
	}
	return txns
}

// TestWalkerMatchesSupportSet drives one Walker over itemsets in sorted
// and in shuffled order: whatever prefix the stack happens to hold, the
// support equals the map reference (or is below two when the reference
// is).
func TestWalkerMatchesSupportSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txns := walkerTxns(rng, 6000)
	idx := newMiner(txns).BuildIndex()
	var dense, sparse int
	for it := range idx.postings {
		if idx.bits[it] != nil {
			dense++
		} else if len(idx.postings[it]) > 0 {
			sparse++
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("fixture has %d dense and %d sparse items; need both", dense, sparse)
	}

	var seqs [][]int32
	var sets [][]int
	for i := 0; i < 400; i++ {
		// Items of a real transaction, so most supports are non-empty;
		// every fifth set gets a foreign item and usually an empty one.
		txn := txns[rng.Intn(len(txns))]
		items := make([]int, 0, 4)
		for _, p := range rng.Perm(len(txn))[:1+rng.Intn(min(4, len(txn)))] {
			items = append(items, txn[p])
		}
		if i%5 == 0 {
			items = append(items, 100+rng.Intn(30))
		}
		sets = append(sets, items)
		seqs = append(seqs, idx.RankSeq(nil, items))
	}
	check := func(label string, perm []int) {
		w := idx.NewWalker()
		for _, i := range perm {
			got := w.Support(seqs[i])
			want := mapSupport(txns, sets[i])
			if len(want) < 2 {
				if len(got) >= 2 {
					t.Fatalf("%s: set %v: walker %d members, reference %d", label, sets[i], len(got), len(want))
				}
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: set %v: walker %v != reference %v", label, sets[i], got, want)
			}
			if set := idx.SupportSet(sets[i]); !slices.Equal(set, want) {
				t.Fatalf("%s: set %v: SupportSet %v != reference %v", label, sets[i], set, want)
			}
		}
	}
	sorted := make([]int, len(seqs))
	for i := range sorted {
		sorted[i] = i
	}
	slices.SortFunc(sorted, func(a, b int) int { return slices.Compare(seqs[a], seqs[b]) })
	check("sorted", sorted)
	check("shuffled", rng.Perm(len(seqs)))
}

// TestIntersectBranches reaches each branch of the kernel by
// construction and checks it against the map reference, with a Walker's
// marks and with none (SupportSet's call).
func TestIntersectBranches(t *testing.T) {
	const nTxn = 64 * 80 // words = 80
	txns := make([][]int, nTxn)
	for ti := range txns {
		txns[ti] = []int{0} // dense
		if ti%70 == 0 {
			txns[ti] = append(txns[ti], 1) // 74 postings: sparse
		}
		if ti%140 == 0 || ti%140 == 35 {
			txns[ti] = append(txns[ti], 2) // 74 postings: half of them 1's
		}
	}
	idx := newMiner(txns).BuildIndex()
	every := func(stride int) []int {
		var out []int
		for ti := 0; ti < nTxn; ti += stride {
			out = append(out, ti)
		}
		return out
	}
	reference := func(prev []int, item int) []int {
		var want []int
		for _, ti := range prev {
			if slices.Contains(txns[ti], item) {
				want = append(want, ti)
			}
		}
		return want
	}
	gallops := func(prev []int, item int) bool {
		return idx.bits[item] == nil && len(idx.postings[item]) >= gallopRatio*len(prev)
	}
	cases := []struct {
		name   string
		prev   []int
		item   int
		marked bool // through a Walker's marks, else with none
		hit    func(prev []int) bool
	}{
		{"bitset", every(3), 0, true, func([]int) bool { return idx.bits[0] != nil }},
		{"gallop", every(1000), 1, true, func(prev []int) bool { return gallops(prev, 1) }},
		{"mark-and-probe", every(100), 1, true, func(prev []int) bool {
			return idx.bits[1] == nil && !gallops(prev, 1)
		}},
		{"gallop without marks", every(100), 1, false, func([]int) bool { return idx.bits[1] == nil }},
		{"gallop past the end", []int{nTxn - 1}, 1, true, func(prev []int) bool { return gallops(prev, 1) }},
		{"empty prev", nil, 1, true, func([]int) bool { return true }},
	}
	for _, c := range cases {
		if !c.hit(c.prev) {
			t.Fatalf("%s: fixture does not reach the branch", c.name)
		}
		want := reference(c.prev, c.item)
		var mk *marks
		if c.marked {
			mk = &idx.NewWalker().marks
		}
		if got := idx.intersect(nil, c.prev, c.item, mk); !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
		}
		own := slices.Clone(c.prev)
		if got := idx.intersect(own[:0], own, c.item, mk); !slices.Equal(got, want) {
			t.Errorf("%s in place: got %v, want %v", c.name, got, want)
		}
	}

	// A Walker materializes {1, 2} by mark-and-probe: the rarest posting
	// against one of the same length.
	w := idx.NewWalker()
	if got, want := w.Support(idx.RankSeq(nil, []int{1, 2})), mapSupport(txns, []int{1, 2}); !slices.Equal(got, want) {
		t.Errorf("Walker.Support({1, 2}) = %v, want %v", got, want)
	}
	if w.marks.stamp == nil {
		t.Error("Walker.Support({1, 2}) did not stamp its marks")
	}

	// Stale marks: item 2's posting holds half of the transactions item
	// 1's intersection stamped; the other half must not survive — after
	// an epoch bump, and after the epoch wraps and the marks are cleared.
	prev := every(5)
	want := reference(prev, 2)
	for _, wrap := range []bool{false, true} {
		w := idx.NewWalker()
		if gallops(prev, 1) || gallops(prev, 2) {
			t.Fatal("stale-mark fixture gallops")
		}
		idx.intersect(nil, prev, 1, &w.marks)
		if wrap {
			w.marks.epoch = math.MaxUint32
		}
		if got := idx.intersect(nil, prev, 2, &w.marks); !slices.Equal(got, want) {
			t.Errorf("wrap=%v: after item 1, prev ∩ item 2 = %v, want %v", wrap, got, want)
		}
		if wrap && w.marks.epoch != 1 {
			t.Errorf("wrapped epoch is %d, want 1", w.marks.epoch)
		}
	}
}

// FuzzIntersect checks the three branches of the intersection kernel —
// bitset probe, gallop, mark-and-probe — and the two folds built on it
// against the map reference. The input bytes become a small database in which item 0
// is in every transaction (dense once there are 64), items 1–2 are
// common, and the rest are sparse, then an itemset (duplicates and absent
// items allowed) and an arbitrary ascending prev list.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(70))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 7, 7, 7, 7, 200, 100, 50, 25}, uint16(300))
	f.Add([]byte{3, 3, 1, 1, 0, 0, 9, 9}, uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, nTxn uint16) {
		n := int(nTxn % 1200)
		seed := int64(nTxn)
		for _, b := range data {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		txns := make([][]int, n)
		for ti := range txns {
			seen := map[int]bool{0: true}
			for _, b := range data[:min(32, len(data))] {
				if rng.Intn(4) == 0 {
					seen[1+int(b)%12] = true
				}
			}
			if rng.Intn(3) > 0 {
				seen[1+rng.Intn(2)] = true
			}
			for it := range seen {
				txns[ti] = append(txns[ti], it)
			}
			sort.Ints(txns[ti])
		}
		idx := newMiner(txns).BuildIndex()

		// The itemset: one item per input byte, at most six.
		var items []int
		for _, b := range data[:min(6, len(data))] {
			items = append(items, int(b)%14) // 13 is never present
		}
		want := mapSupport(txns, items)
		if len(items) == 0 {
			want = nil
		}
		if got := idx.SupportSet(items); !slices.Equal(got, want) {
			t.Fatalf("SupportSet(%v) = %v, want %v", items, got, want)
		}
		if len(items) > 0 && n > 0 {
			inRange := true
			for _, it := range items {
				inRange = inRange && it < idx.NumItems()
			}
			if inRange {
				got := idx.NewWalker().Support(idx.RankSeq(nil, items))
				if len(want) < 2 && len(got) >= 2 || len(want) >= 2 && !slices.Equal(got, want) {
					t.Fatalf("Walker.Support(%v) = %v, want %v", items, got, want)
				}
			}
		}

		// The kernel alone, over a prev list unrelated to any posting:
		// every transaction, then ever fewer of them, so both
		// mark-and-probe and the gallop ratio are reached for sparse
		// items. One Walker's marks serve every call, so each
		// intersection meets the stamps of the ones before it.
		w := idx.NewWalker()
		for _, stride := range []int{1, 3, 40, 400} {
			var prev []int
			for ti := int(nTxn) % stride; ti < n; ti += stride {
				prev = append(prev, ti)
			}
			for item := 0; item < idx.NumItems(); item++ {
				var want []int
				for _, ti := range prev {
					if slices.Contains(txns[ti], item) {
						want = append(want, ti)
					}
				}
				for _, mk := range []*marks{nil, &w.marks} {
					got := idx.intersect(nil, prev, item, mk)
					if !slices.Equal(got, want) {
						t.Fatalf("intersect(stride %d, item %d, dense %v, marked %v) = %v, want %v",
							stride, item, idx.bits[item] != nil, mk != nil, got, want)
					}
					// Appending behind existing content leaves it alone.
					pre := []int{-7, -3}
					if got := idx.intersect(pre, prev, item, mk); !slices.Equal(got[:2], pre) || !slices.Equal(got[2:], want) {
						t.Fatalf("intersect appended %v behind %v, want %v", got, pre, want)
					}
					// In place: dst is prev[:0].
					own := slices.Clone(prev)
					if got := idx.intersect(own[:0], own, item, mk); !slices.Equal(got, want) {
						t.Fatalf("intersect in place (stride %d, item %d, marked %v) = %v, want %v",
							stride, item, mk != nil, got, want)
					}
				}
			}
		}
	})
}
