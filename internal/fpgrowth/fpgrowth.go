// Package fpgrowth implements frequent-itemset mining over integer item
// ids — all frequent itemsets, and the maximal frequent itemsets (MFIs)
// FPmax-style — in FP-Growth's item order (Han et al.), plus the
// frequent-item pruning rule MFIBlocks relies on.
//
// A transaction is a record's deduplicated item-id set; the support of an
// itemset is the number of transactions containing it. An itemset is
// frequent when its support is at least minsup and maximal when no frequent
// strict superset exists.
//
// Item ids must be non-negative and reasonably dense (dictionary-interned
// ids): frequencies, ranks, and the inverted index are all flat slices
// indexed by item id. Both miners read one structure: the support level's
// rank arena (arena.go), each top-level item's rest projected as vertical
// bitmaps (bitmap.go). Maximal mining fans out across a worker pool
// (mfi.go) while MineMaximal's result stays bit-identical at every worker
// count.
package fpgrowth

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"repro/internal/telemetry/trace"
)

// Itemset is one mined itemset with its support count.
type Itemset struct {
	// Items are the item ids, sorted ascending.
	Items []int
	// Support is the number of transactions containing all Items.
	Support int
}

// String renders the itemset for debugging.
func (s Itemset) String() string {
	return fmt.Sprintf("%v(sup=%d)", s.Items, s.Support)
}

// Miner mines frequent itemsets from a fixed transaction database.
type Miner struct {
	txns    *Transactions
	maxItem int // largest item id seen; -1 when empty
	// Pruned items are excluded from mining entirely (the paper prunes
	// the most frequent .03% of items).
	pruned []bool
	// Trace, when set, parents the per-call tree-build/mine spans and
	// the per-worker fan-out spans. Callers that mine repeatedly (the
	// MFIBlocks minsup loop) re-point it at each iteration's span; nil
	// traces nothing.
	Trace *trace.Span
	// Workers bounds the goroutines MineMaximal fans the top-level header
	// items out to: 0 means GOMAXPROCS, 1 runs one worker. The mined
	// MFIs are bit-identical for every worker count.
	Workers int
}

// NewMiner builds a miner over the transactions. Each transaction is a set
// of non-negative item ids: order is irrelevant and a repeated id counts
// once (Transactions.Append).
func NewMiner(transactions [][]int) *Miner {
	return NewMinerTxns(FromSlices(transactions))
}

// NewMinerTxns builds a miner directly over an arena-form database,
// sharing it with the caller — the zero-copy entry point for streaming
// callers that assemble the arena incrementally.
func NewMinerTxns(txns *Transactions) *Miner {
	return &Miner{txns: txns, maxItem: txns.MaxItem()}
}

// Prune excludes the given item ids from all subsequent mining.
func (m *Miner) Prune(items []int) {
	if m.pruned == nil {
		m.pruned = make([]bool, m.maxItem+1)
	}
	for _, it := range items {
		if it >= 0 && it < len(m.pruned) {
			m.pruned[it] = true
		}
	}
}

func (m *Miner) isPruned(it int) bool {
	return m.pruned != nil && m.pruned[it]
}

func (m *Miner) workers() int {
	if m.Workers > 0 {
		return m.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Mine returns all frequent itemsets with support >= minsup, over the
// transactions whose indices are in active (nil means all), in no
// particular order. minsup must be at least 1. Singleton itemsets are
// included. Each top-level rank's rest is projected as vertical bitmaps
// (bitmap.go) and every frequent extension enumerated, Eclat-style; a node
// whose rows are nested is a single chain, whose combinations are emitted
// directly. Mine fails, returning no itemsets, when such a chain plus the
// itemset it extends holds more than 62 items (maxSinglePathItems).
func (m *Miner) Mine(minsup int, active []int) ([]Itemset, error) {
	if minsup < 1 {
		minsup = 1
	}
	a, _ := m.rankArena(minsup, active, nil) // counted here, the counts cannot disagree
	var out []Itemset
	ctx := newMineCtx(a.order, minsup)
	for r := int32(len(a.order)) - 1; r >= 0; r-- {
		ctx.suffix = append(ctx.suffix[:0], a.order[r])
		out = append(out, Itemset{Items: []int{a.order[r]}, Support: a.support(r)})
		tail := ctx.conditionalCounts(a, r)
		slices.Sort(tail)
		ctx.clearCounts()
		if len(tail) == 0 {
			continue
		}
		ctx.project(a, r, tail)
		err := ctx.mineAll(1, &out)
		ctx.bits = ctx.bits[:0]
		if err != nil {
			return nil, err
		}
	}
	for i := range out {
		sort.Ints(out[i].Items)
	}
	return out, nil
}

// TreeStats reports the size of the rank-ordered root FP-tree for the
// given support level: the node count (excluding the root) and the number
// of frequent items. No tree is built: a node is a distinct non-empty
// prefix of the rank arena's rows, and the rows are counted. The count is
// introspection: the repo benchmark's fpgrowth.tree_nodes, and
// BenchmarkTreeBuild's workload.
func (m *Miner) TreeStats(minsup int, active []int) (nodes, items int) {
	if minsup < 1 {
		minsup = 1
	}
	a, _ := m.rankArena(minsup, active, nil) // counted here, the counts cannot disagree
	return a.prefixes(), len(a.order)
}

// mineAll emits every frequent itemset of the bitmap node at depth: each
// rank's, the node's itemset (ctx.suffix) plus the rank, with the
// popcount of the node's mask and its row, then the rank's child — the
// lower ranks still frequent under that mask — mined the same way.
func (ctx *mineCtx) mineAll(depth int, out *[]Itemset) error {
	lv, child := &ctx.blv[depth], &ctx.blv[depth+1]
	if ctx.nested(lv) {
		return ctx.emitChain(lv, out)
	}
	for i := len(lv.ranks) - 1; i >= 0; i-- {
		r := lv.ranks[i]
		top := len(ctx.bits)
		mask := ctx.push(lv.words)
		m := ctx.bits[mask : mask+lv.words]
		parent, row := ctx.bits[lv.mask:lv.mask+lv.words], ctx.row(lv, lv.rows[i])
		support := 0
		for k := range m {
			m[k] = parent[k] & row[k]
			support += bits.OnesCount64(m[k])
		}
		*out = append(*out, Itemset{Items: append(slices.Clip(ctx.suffix), ctx.order[r]), Support: support})
		ranks, rows := child.ranks[:0], child.rows[:0]
		for j, x := range lv.ranks[:i] {
			if ctx.count(lv, m, lv.rows[j]) >= ctx.minsup {
				ranks = append(ranks, x)
				rows = append(rows, lv.rows[j])
			}
		}
		child.ranks, child.rows = ranks, rows
		var err error
		if len(ranks) > 0 {
			child.base, child.words, child.mask = lv.base, lv.words, mask
			ctx.suffix = append(ctx.suffix, ctx.order[r])
			err = ctx.mineAll(depth+1, out)
			ctx.suffix = ctx.suffix[:len(ctx.suffix)-1]
		}
		ctx.bits = ctx.bits[:top]
		if err != nil {
			return err
		}
	}
	return nil
}

// maxSinglePathItems bounds the itemsets a nested chain's combinations
// reach: a chain of n ranks under an itemset of s items implies 2^n-1
// itemsets of up to s+n items, and past s+n = 62 Mine fails instead of
// enumerating them. The bound counts the suffix so that a root path of 63
// ranks is refused as a whole, however the top-level ranks split it; 62
// also keeps the combination mask exact in a uint64.
const maxSinglePathItems = 62

// emitChain emits every non-empty combination of lv's ranks, a nested
// chain, appended to the suffix, with the support of the deepest rank in
// the combination. It refuses a chain that with the suffix holds more
// than maxSinglePathItems ranks.
func (ctx *mineCtx) emitChain(lv *bitLevel, out *[]Itemset) error {
	n := len(ctx.suffix) + len(lv.ranks)
	if n > maxSinglePathItems {
		return fmt.Errorf(
			"fpgrowth: single-path tree with %d frequent nodes implies 2^%d-1 itemsets; refusing to enumerate more than 2^%d",
			n, n, maxSinglePathItems)
	}
	m := ctx.bits[lv.mask : lv.mask+lv.words]
	sups := make([]int, len(lv.ranks))
	for j, row := range lv.rows {
		sups[j] = ctx.count(lv, m, row)
	}
	for set := uint64(1); set < 1<<len(lv.ranks); set++ {
		items := make([]int, 0, len(ctx.suffix)+bits.OnesCount64(set))
		items = append(items, ctx.suffix...)
		for b := set; b != 0; b &= b - 1 {
			items = append(items, ctx.order[lv.ranks[bits.TrailingZeros64(b)]])
		}
		*out = append(*out, Itemset{Items: items, Support: sups[bits.Len64(set)-1]})
	}
	return nil
}
