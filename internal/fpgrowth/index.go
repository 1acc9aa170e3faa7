package fpgrowth

import "slices"

// Index is an inverted index from item id to the (ascending) transaction
// indices containing it, used to materialize itemset supports as blocks.
// It ranks every item by ascending posting length (ties by item id), so
// an itemset's rarest item — the shortest posting list its support is a
// subset of — is the one of least rank. It also holds the transaction
// arena the postings index.
type Index struct {
	postings [][]int // item id -> ascending txn indices; nil when absent
	rank     []int32 // item id -> position in the rarest-first order
	order    []int32 // rarest-first position -> item id
	txns     *Transactions
}

// BuildIndex indexes the miner's transactions.
func (m *Miner) BuildIndex() *Index {
	numTxns := m.txns.Len()
	idx := &Index{
		postings: make([][]int, m.maxItem+1),
		txns:     m.txns,
	}
	// Size each posting list exactly before filling: one counting pass
	// spares the append-doubling garbage of the naive build.
	counts := make([]int, m.maxItem+1)
	for _, it := range m.txns.items {
		counts[it]++
	}
	arena := make([]int, 0, len(m.txns.items))
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
	return idx
}

// NumItems returns the size of the item id space, which is also the size
// of the rank space.
func (x *Index) NumItems() int { return len(x.rank) }

// Rank returns the item's position in the rarest-first order.
func (x *Index) Rank(item int) int32 { return x.rank[item] }

// Posting returns the ascending transaction indices holding the item of
// rank r. The slice is the index's own and must not be modified.
func (x *Index) Posting(r int32) []int { return x.postings[x.order[r]] }

// SupportSet returns the ascending transaction indices containing every
// item of the itemset, by definition: the rarest item's posting list,
// filtered to the transactions that hold every other item. The returned
// slice is freshly allocated and safe for the caller to retain; an empty
// support is nil.
func (x *Index) SupportSet(items []int) []int {
	if len(items) == 0 {
		return nil
	}
	rarest := items[0]
	for _, it := range items {
		if it < 0 || it >= len(x.postings) || len(x.postings[it]) == 0 {
			return nil
		}
		if x.rank[it] < x.rank[rarest] {
			rarest = it
		}
	}
	p := x.postings[rarest]
	out := make([]int, 0, len(p))
next:
	for _, ti := range p {
		txn := x.txns.Txn(ti)
		for _, it := range items {
			if _, ok := slices.BinarySearch(txn, int32(it)); !ok {
				continue next
			}
		}
		out = append(out, ti)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
