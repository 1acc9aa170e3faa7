package fpgrowth

import (
	"math/bits"
	"slices"
	"sync"
)

// Index is an inverted index from item id to the (ascending) transaction
// indices containing it, used to materialize itemset supports as blocks.
// Dense items — those appearing in at least 1/denseBitsetDivisor of the
// transactions (with a small floor) — additionally carry a word-level
// bitset, so intersections against them are O(1) membership tests or
// whole-word ANDs instead of pairwise sorted-list merges; sparse items keep
// the posting-list path.
type Index struct {
	postings [][]int    // item id -> ascending txn indices; nil when absent
	bits     [][]uint64 // item id -> transaction bitset; nil for sparse items
	words    int        // bitset length: ceil(numTxns/64)
	numTxns  int
}

// denseBitsetDivisor sets the posting-list length at which an item earns a
// bitset: numTxns/denseBitsetDivisor, floored at denseBitsetFloor so tiny
// collections don't pay bitset memory for every item.
const (
	denseBitsetDivisor = 32
	denseBitsetFloor   = 64
)

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

	cutoff := idx.numTxns / denseBitsetDivisor
	if cutoff < denseBitsetFloor {
		cutoff = denseBitsetFloor
	}
	idx.bits = make([][]uint64, m.maxItem+1)
	for it, ps := range idx.postings {
		if len(ps) < cutoff {
			continue
		}
		b := make([]uint64, idx.words)
		for _, ti := range ps {
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

// wordScratch recycles the intersection buffers of the all-dense word-AND
// path; SupportSet runs concurrently from the block-building worker pool.
var wordScratch = sync.Pool{New: func() any { return new([]uint64) }}

// SupportSet returns the ascending transaction indices containing every
// item of the itemset. The returned slice is freshly allocated and safe for
// the caller to retain.
func (x *Index) SupportSet(items []int) []int {
	out := x.AppendSupportSet(items, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendSupportSet appends the ascending transaction indices containing
// every item of the itemset to dst and returns the extended slice — the
// allocation-free form of SupportSet for callers that recycle member
// buffers across blocks (the materialization hot loop). An empty support
// appends nothing.
func (x *Index) AppendSupportSet(items []int, dst []int) []int {
	if len(items) == 0 {
		return dst
	}
	smallest := -1
	allDense := true
	for _, it := range items {
		if it < 0 || it >= len(x.postings) || len(x.postings[it]) == 0 {
			return dst
		}
		if smallest < 0 || len(x.postings[it]) < len(x.postings[smallest]) {
			smallest = it
		}
		if x.bits[it] == nil {
			allDense = false
		}
	}
	if len(items) == 1 {
		return append(dst, x.postings[smallest]...)
	}
	// When every item is dense and even the smallest posting list is
	// longer than the bitset, whole-word ANDs beat per-element probing.
	if allDense && len(x.postings[smallest]) > x.words {
		return x.appendIntersectWords(items, dst)
	}

	// Driver path: copy the smallest posting list once, then shrink it in
	// place against each remaining item — an O(1) bitset probe for dense
	// items, a sorted merge for sparse ones.
	base := len(dst)
	dst = append(dst, x.postings[smallest]...)
	out := dst[base:]
	for _, it := range items {
		if it == smallest {
			continue
		}
		if b := x.bits[it]; b != nil {
			out = filterBits(out, b)
		} else {
			out = intersectInto(out, x.postings[it])
		}
		if len(out) == 0 {
			return dst[:base]
		}
	}
	return dst[:base+len(out)]
}

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

// appendIntersectWords ANDs the bitsets of all items into a pooled scratch
// and appends the surviving transaction indices to dst.
func (x *Index) appendIntersectWords(items []int, dst []int) []int {
	sp := wordScratch.Get().(*[]uint64)
	scratch := *sp
	if cap(scratch) < x.words {
		scratch = make([]uint64, x.words)
	}
	scratch = scratch[:x.words]
	copy(scratch, x.bits[items[0]])
	for _, it := range items[1:] {
		b := x.bits[it]
		for w := range scratch {
			scratch[w] &= b[w]
		}
	}
	n := 0
	for _, w := range scratch {
		n += bits.OnesCount64(w)
	}
	if n > 0 {
		dst = slices.Grow(dst, n)
		for wi, w := range scratch {
			base := wi << 6
			for w != 0 {
				dst = append(dst, base+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
	*sp = scratch
	wordScratch.Put(sp)
	return dst
}

// filterBits keeps the members of dst whose bit is set, in place.
func filterBits(dst []int, b []uint64) []int {
	k := 0
	for _, ti := range dst {
		if b[ti>>6]&(1<<uint(ti&63)) != 0 {
			dst[k] = ti
			k++
		}
	}
	return dst[:k]
}

// intersectInto intersects dst with the sorted list b, writing the result
// into dst's prefix. Both inputs are ascending.
func intersectInto(dst, b []int) []int {
	i, j, k := 0, 0, 0
	for i < len(dst) && j < len(b) {
		switch {
		case dst[i] == b[j]:
			dst[k] = dst[i]
			k++
			i++
			j++
		case dst[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst[:k]
}
