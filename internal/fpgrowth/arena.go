package fpgrowth

import (
	"fmt"
	"slices"
)

// Transactions is the flat arena form of a transaction database: every
// transaction's item ids live contiguously in one int32 slice, with an
// offsets table delimiting the per-transaction windows. Compared to the
// historical [][]int it removes one pointer and one allocation per
// record — at millions of records that is the difference between a
// cache-linear counting/ranking pass and a pointer chase — and
// halves the per-item footprint (item ids are dictionary-dense and far
// below 2^31).
//
// Append-only: a streaming caller grows the arena record by record and
// hands it to NewMinerTxns once ingest finishes. Txn returns a
// subslice view into the arena; callers must not retain or mutate it
// across Appends.
type Transactions struct {
	items   []int32
	offsets []int64 // len = Len()+1; txn i spans items[offsets[i]:offsets[i+1]]
	maxItem int     // largest item id seen; -1 when empty
}

// NewTransactions returns an empty arena with room hints for nTxns
// transactions totalling nItems item occurrences. Zero hints are fine.
func NewTransactions(nTxns, nItems int) *Transactions {
	t := &Transactions{
		items:   make([]int32, 0, nItems),
		offsets: make([]int64, 1, nTxns+1),
		maxItem: -1,
	}
	return t
}

// Append adds one transaction (a set of non-negative item ids, in any
// order) and returns its index. The arena stores it ascending with
// repeated ids dropped — every reader counts an item once per transaction
// and the rank arena's windows rely on it — so input that is already
// ascending and duplicate-free, like what Dictionary.Observe hands it, is
// only checked.
func (t *Transactions) Append(txn []int) int {
	start := len(t.items)
	canonical := true
	for i, it := range txn {
		if it < 0 {
			panic(fmt.Sprintf("fpgrowth: negative item id %d", it))
		}
		if it > t.maxItem {
			t.maxItem = it
		}
		if i > 0 && it <= txn[i-1] {
			canonical = false
		}
		t.items = append(t.items, int32(it))
	}
	if !canonical {
		row := t.items[start:]
		slices.Sort(row)
		t.items = t.items[:start+len(slices.Compact(row))]
	}
	t.offsets = append(t.offsets, int64(len(t.items)))
	return len(t.offsets) - 2
}

// Len returns the number of transactions.
func (t *Transactions) Len() int {
	if t == nil {
		return 0
	}
	return len(t.offsets) - 1
}

// MaxItem returns the largest item id seen, or -1 when empty.
func (t *Transactions) MaxItem() int {
	if t == nil {
		return -1
	}
	return t.maxItem
}

// Txn returns transaction i as a view into the arena. The view is valid
// until the next Append; callers must not mutate it.
func (t *Transactions) Txn(i int) []int32 {
	return t.items[t.offsets[i]:t.offsets[i+1]]
}

// forEachActive visits the transactions whose indices are in active
// (nil means all), in order.
func (t *Transactions) forEachActive(active []int, fn func([]int32)) {
	if active == nil {
		for i := 0; i < t.Len(); i++ {
			fn(t.Txn(i))
		}
		return
	}
	for _, i := range active {
		fn(t.Txn(i))
	}
}

// rankArena is one support level's projection of the active
// transactions, laid out to be read in order rather than walked through
// parent pointers. ranks holds every active transaction's frequent ranks
// ascending, back to back; row i spans ranks[rows[i]:rows[i+1]], and rows
// left empty by the frequency cut are not stored. Ascending structural
// rank is the FP-tree's path order, so the ranks a row holds before rank
// r are exactly the prefix path above the node that transaction passes
// through for r in the root tree. wins groups those prefixes by rank:
// wins[start[r]:start[r+1]] are rank r's windows into ranks, one per
// transaction holding r, in transaction order.
//
// Both miners read a top-level item's conditional counts and its bitmap
// projection off its windows; TreeStats counts the rows' distinct
// prefixes, the root FP-tree's nodes.
type rankArena struct {
	order []int    // rank -> item id
	ranks []int32  // the rows, back to back
	rows  []int32  // len = rows+1
	wins  []window // grouped by rank
	start []int32  // rank -> first window; len(order)+1 entries
}

// window is one prefix: ranks[lo:hi].
type window struct{ lo, hi int32 }

// rankArena ranks the items whose support over the active transactions
// (nil means all) reaches minsup — descending support, ascending id on
// ties, pruned items left out — and lays the active transactions out in
// that rank space. When freq is non-nil it must hold every item id's
// occurrence count over the active transactions, sparing the counting
// pass: the incremental counts mfiblocks.RunCorpus keeps across its
// minsup iterations. The windows are placed from those counts in the
// same pass that writes the rows, so counts that disagree with the rows
// are found there and returned as an error; without freq there is none.
func (m *Miner) rankArena(minsup int, active []int, freq []int) (*rankArena, error) {
	counts := freq
	if counts == nil {
		counts = make([]int, m.maxItem+1)
		m.txns.forEachActive(active, func(txn []int32) {
			for _, it := range txn {
				counts[it]++
			}
		})
	}
	limit := min(m.maxItem+1, len(counts))
	order := make([]int, 0, limit)
	total := 0
	for it := 0; it < limit; it++ {
		if counts[it] >= minsup && !m.isPruned(it) {
			order = append(order, it)
			total += counts[it]
		}
	}
	// Descending frequency, ascending id on ties: ascending rank is the
	// structural item order on every tree path.
	slices.SortFunc(order, func(a, b int) int {
		if c := counts[b] - counts[a]; c != 0 {
			return c
		}
		return a - b
	})
	rankOf := make([]int32, m.maxItem+1)
	for i := range rankOf {
		rankOf[i] = -1
	}
	nRows := len(active)
	if active == nil {
		nRows = m.txns.Len()
	}
	a := &rankArena{
		order: order,
		ranks: make([]int32, 0, total),
		rows:  make([]int32, 1, nRows+1),
		wins:  make([]window, total),
		start: make([]int32, len(order)+1),
	}
	for r, it := range order {
		rankOf[it] = int32(r)
		a.start[r+1] = a.start[r] + int32(counts[it])
	}
	next := slices.Clone(a.start[:len(order)])
	bad := -1 // a rank whose windows disagree with its count
	m.txns.forEachActive(active, func(txn []int32) {
		lo := len(a.ranks)
		for _, it := range txn {
			if r := rankOf[it]; r >= 0 {
				a.ranks = append(a.ranks, r)
			}
		}
		row := a.ranks[lo:]
		if len(row) == 0 {
			return
		}
		// A transaction holds each item once, so the row is
		// duplicate-free and sorting it gives the path order.
		sortInt32(row)
		for p, r := range row {
			if next[r] == a.start[r+1] {
				bad = int(r) // more windows than counted: keep the others in bounds
				continue
			}
			a.wins[next[r]] = window{int32(lo), int32(lo + p)}
			next[r]++
		}
		a.rows = append(a.rows, int32(len(a.ranks)))
	})
	for r, n := range next {
		if bad < 0 && n != a.start[r+1] {
			bad = r
		}
	}
	if bad >= 0 {
		it := order[bad]
		return nil, fmt.Errorf("fpgrowth: freq[%d] = %d is not item %d's occurrence count over the active transactions", it, counts[it], it)
	}
	return a, nil
}

// sortInt32 sorts small rank buffers ascending. Insertion sort beats the
// generic sort for the short, mostly-presorted per-transaction rows.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// windows returns rank r's prefix windows.
func (a *rankArena) windows(r int32) []window {
	return a.wins[a.start[r]:a.start[r+1]]
}

// support returns rank r's support: one window per transaction holding
// it.
func (a *rankArena) support(r int32) int {
	return int(a.start[r+1] - a.start[r])
}

// countPrefixes adds every rank of r's windows into cnt, appending the
// ranks it moves off zero to touched, and returns touched.
func (a *rankArena) countPrefixes(r int32, cnt []int, touched []int32) []int32 {
	for _, w := range a.windows(r) {
		for _, ri := range a.ranks[w.lo:w.hi] {
			if cnt[ri] == 0 {
				touched = append(touched, ri)
			}
			cnt[ri]++
		}
	}
	return touched
}

// prefixes returns the number of distinct non-empty prefixes among the
// rows: the node count of the root FP-tree they would build, one node per
// prefix. Sorted, each row adds the ranks past its longest common prefix
// with the one before it.
func (a *rankArena) prefixes() int {
	rows := make([][]int32, len(a.rows)-1)
	for i := range rows {
		rows[i] = a.ranks[a.rows[i]:a.rows[i+1]]
	}
	slices.SortFunc(rows, slices.Compare[[]int32])
	n := 0
	var prev []int32
	for _, cur := range rows {
		l := 0
		for l < len(prev) && l < len(cur) && prev[l] == cur[l] {
			l++
		}
		n += len(cur) - l
		prev = cur
	}
	return n
}

// conditionalCounts accumulates the conditional item counts along r's
// windows into condCnt and returns the ranks whose conditional support
// reaches minsup, unordered, in scratch the next call overwrites. The
// counts stay until clearCounts.
func (ctx *mineCtx) conditionalCounts(a *rankArena, r int32) []int32 {
	ctx.touched = a.countPrefixes(r, ctx.condCnt, ctx.touched[:0])
	tail := ctx.tail[:0]
	for _, ri := range ctx.touched {
		if ctx.condCnt[ri] >= ctx.minsup {
			tail = append(tail, ri)
		}
	}
	ctx.tail = tail
	return tail
}

// clearCounts zeroes the counts conditionalCounts left behind.
func (ctx *mineCtx) clearCounts() {
	for _, ri := range ctx.touched {
		ctx.condCnt[ri] = 0
	}
}
