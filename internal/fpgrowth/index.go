package fpgrowth

import "slices"

// Index is an inverted index from item id to the (ascending) transaction
// indices containing it, used to materialize itemset supports as blocks.
//
// Supports are intersected rarest item first: the index ranks every item
// by ascending posting length (ties by item id), so the running
// intersection starts from the shortest list and only shrinks. An item
// whose bitset would be no larger than its posting list (len(posting) ≥
// words, floor denseBitsetFloor) also carries a transaction bitset, which
// keeps bitset memory at or below posting memory at any corpus size and
// makes intersecting against it one probe per surviving record.
type Index struct {
	postings [][]int    // item id -> ascending txn indices; nil when absent
	bits     [][]uint64 // item id -> transaction bitset; nil for sparse items
	rank     []int32    // item id -> position in the rarest-first order
	order    []int32    // rarest-first position -> item id
	numTxns  int
	words    int // bitset length: ceil(numTxns/64)
}

// denseBitsetFloor keeps tiny collections, whose bitsets are a word or
// two, from paying one for every item.
const denseBitsetFloor = 64

// gallopRatio is the length ratio from which galloping through a sparse
// item's posting list beats stamping all of it (mark-and-probe).
const gallopRatio = 8

// BuildIndex indexes the miner's transactions.
func (m *Miner) BuildIndex() *Index {
	numTxns := m.txns.Len()
	idx := &Index{
		postings: make([][]int, m.maxItem+1),
		numTxns:  numTxns,
		words:    (numTxns + 63) / 64,
	}
	// Size each posting list exactly before filling: one counting pass
	// spares the append-doubling garbage of the naive build.
	counts := make([]int, m.maxItem+1)
	for _, it := range m.txns.items {
		counts[it]++
	}
	arena := make([]int, 0, total(counts))
	for it, c := range counts {
		if c > 0 {
			idx.postings[it] = arena[len(arena) : len(arena) : len(arena)+c]
			arena = arena[:len(arena)+c]
		}
	}
	for ti := 0; ti < numTxns; ti++ {
		for _, it := range m.txns.Txn(ti) {
			idx.postings[it] = append(idx.postings[it], ti)
		}
	}

	idx.order = make([]int32, len(counts))
	for it := range idx.order {
		idx.order[it] = int32(it)
	}
	slices.SortFunc(idx.order, func(a, b int32) int {
		if c := counts[a] - counts[b]; c != 0 {
			return c
		}
		return int(a - b)
	})
	idx.rank = make([]int32, len(counts))
	for r, it := range idx.order {
		idx.rank[it] = int32(r)
	}

	// Dense items are the tail of the rarest-first order.
	cutoff := max(idx.words, denseBitsetFloor)
	dense := idx.order
	for len(dense) > 0 && counts[dense[0]] < cutoff {
		dense = dense[1:]
	}
	idx.bits = make([][]uint64, len(counts))
	bitArena := make([]uint64, len(dense)*idx.words)
	for i, it := range dense {
		b := bitArena[i*idx.words : (i+1)*idx.words : (i+1)*idx.words]
		for _, ti := range idx.postings[it] {
			b[ti>>6] |= 1 << uint(ti&63)
		}
		idx.bits[it] = b
	}
	return idx
}

func total(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// NumItems returns the size of the item id space, which is also the size
// of the rank space.
func (x *Index) NumItems() int { return len(x.rank) }

// Rank returns the item's position in the rarest-first order.
func (x *Index) Rank(item int) int32 { return x.rank[item] }

// RankSeq appends the itemset's rarest-first rank sequence — the ranks of
// its items, ascending — to dst. Every item must be below NumItems.
func (x *Index) RankSeq(dst []int32, items []int) []int32 {
	base := len(dst)
	for _, it := range items {
		r := x.rank[it]
		dst = append(dst, r)
		// Itemsets are a handful of items: insertion sort in place.
		for i := len(dst) - 1; i > base && dst[i-1] > r; i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// marks is a Walker's mark-and-probe scratch: the epoch of the last
// posting list stamped into each transaction. An intersection bumps the
// epoch instead of clearing the array, which is zeroed only when the
// epoch wraps.
type marks struct {
	stamp []uint32 // txn index -> epoch; allocated by the first stamp
	epoch uint32
}

// intersect appends prev ∩ posting(item) to dst, ascending, and returns
// the extended slice. prev must be ascending. dst may be prev[:0] —
// every branch writes at or behind the element of prev it has just read
// — but must not otherwise overlap prev. It is the index's only
// intersection kernel: a bitset probe per element of prev when the item
// is dense, a gallop through the posting list when that is gallopRatio
// times longer than prev or there are no marks to stamp, and otherwise
// mark-and-probe: stamp the posting list into mk, then keep the elements
// of prev that carry the stamp — two sequential loops, none of a merge's
// unpredictable three-way branches.
func (x *Index) intersect(dst, prev []int, item int, mk *marks) []int {
	k := len(dst)
	dst = slices.Grow(dst, len(prev))[:k+len(prev)]
	if b := x.bits[item]; b != nil {
		for _, ti := range prev {
			if b[ti>>6]&(1<<uint(ti&63)) != 0 {
				dst[k] = ti
				k++
			}
		}
		return dst[:k]
	}
	p := x.postings[item]
	if mk == nil || len(p) >= gallopRatio*len(prev) {
		for _, ti := range prev {
			// Double the stride until it passes ti, then binary-search
			// the last stride for the first element ≥ ti.
			step := 1
			for step < len(p) && p[step-1] < ti {
				step <<= 1
			}
			lo, hi := step>>1, min(step, len(p))
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if p[mid] < ti {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			p = p[lo:]
			if len(p) == 0 {
				break
			}
			if p[0] == ti {
				dst[k] = ti
				k++
			}
		}
		return dst[:k]
	}
	if mk.stamp == nil {
		mk.stamp = make([]uint32, x.numTxns)
	}
	mk.epoch++
	if mk.epoch == 0 {
		clear(mk.stamp)
		mk.epoch = 1
	}
	stamp, e := mk.stamp, mk.epoch
	for _, ti := range p {
		stamp[ti] = e
	}
	for _, ti := range prev {
		dst[k] = ti
		if stamp[ti] == e {
			k++
		}
	}
	return dst[:k]
}

// SupportSet returns the ascending transaction indices containing every
// item of the itemset: a fold of intersect over the items, rarest first.
// The returned slice is freshly allocated and safe for the caller to
// retain; an empty support is nil.
func (x *Index) SupportSet(items []int) []int {
	if len(items) == 0 {
		return nil
	}
	for _, it := range items {
		if it < 0 || it >= len(x.postings) || len(x.postings[it]) == 0 {
			return nil
		}
	}
	var buf [16]int32
	seq := x.RankSeq(buf[:0], items)
	cur := x.postings[x.order[seq[0]]]
	if len(seq) == 1 {
		return slices.Clone(cur)
	}
	// The first level is written to a buffer of its own, as long as the
	// rarest posting list; every later one shrinks it in place.
	var out []int
	for _, r := range seq[1:] {
		out = x.intersect(out[:0], cur, int(x.order[r]), nil)
		cur = out
		if len(cur) == 0 {
			return nil
		}
	}
	return out
}

// Walker materializes the supports of itemsets handed to it as
// rarest-first rank sequences (RankSeq), keeping the support of every
// prefix of the last sequence on a stack: a sequence that shares its
// first d ranks with the previous one starts from the stored level d−1
// instead of from a posting list. Presenting sequences in lexicographic
// order therefore computes each distinct prefix once. A Walker is one
// goroutine's state; the Index under it is shared and read-only.
type Walker struct {
	x     *Index
	prev  []int32 // the rank prefix whose supports the stack holds
	stack [][]int // stack[d] = support of prev[:d+1]; stack[0] aliases a posting list
	marks marks
}

// NewWalker returns a Walker over the index with an empty stack.
func (x *Index) NewWalker() *Walker { return &Walker{x: x} }

// Support returns the ascending transaction indices containing every item
// of the non-empty rank sequence, or a slice shorter than two as soon as
// some prefix's support is — no superset of it can form a block, so
// deeper levels are not computed. The result aliases the Walker's stack
// or the index's posting list: it is valid until the next call and must
// not be modified.
func (w *Walker) Support(seq []int32) []int {
	for len(w.stack) < len(seq) {
		w.stack = append(w.stack, nil)
	}
	d := 0
	for d < len(w.prev) && d < len(seq) && w.prev[d] == seq[d] {
		d++
	}
	if d == 0 {
		w.stack[0] = w.x.postings[w.x.order[seq[0]]]
		d = 1
	}
	for ; d < len(seq) && len(w.stack[d-1]) >= 2; d++ {
		w.stack[d] = w.x.intersect(w.stack[d][:0], w.stack[d-1], int(w.x.order[seq[d]]), &w.marks)
	}
	w.prev = append(w.prev[:0], seq[:d]...)
	return w.stack[d-1]
}
