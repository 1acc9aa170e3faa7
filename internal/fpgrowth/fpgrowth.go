// Package fpgrowth implements frequent-itemset mining over integer item
// ids using the FP-Growth algorithm (Han et al.), plus the maximal
// frequent itemset (MFI) extraction and the frequent-item pruning rule
// MFIBlocks relies on.
//
// A transaction is a record's deduplicated item-id set; the support of an
// itemset is the number of transactions containing it. An itemset is
// frequent when its support is at least minsup and maximal when no frequent
// strict superset exists.
//
// Item ids must be non-negative and reasonably dense (dictionary-interned
// ids): frequencies, ranks, and the inverted index are all flat slices
// indexed by item id. Trees are flat arenas (tree.go) and maximal mining
// fans out across a worker pool (mfi.go) while MineMaximal's result stays
// bit-identical at every worker count.
package fpgrowth

import (
	"fmt"
	"runtime"
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
// transactions whose indices are in active (nil means all). minsup must be
// at least 1. Singleton itemsets are included. It fails, returning no
// itemsets, when a single-path tree would imply more itemsets than it
// enumerates (maxSinglePathItems).
func (m *Miner) Mine(minsup int, active []int) ([]Itemset, error) {
	if minsup < 1 {
		minsup = 1
	}
	a := m.rankArena(minsup, active, nil)
	var out []Itemset
	ctx := newMineCtx(a.order, minsup)
	if err := ctx.mineTree(a.rootTree(), 0, &out); err != nil {
		return nil, err
	}
	for i := range out {
		sort.Ints(out[i].Items)
	}
	return out, nil
}

// TreeStats builds the rank-ordered root FP-tree for the given support
// level and reports its size: the node count (excluding the root) and the
// number of frequent items. Maximal mining builds no root tree (it reads
// the rank arena); the count is introspection, the repo benchmark's
// fpgrowth.tree_nodes, and BenchmarkTreeBuild's workload.
func (m *Miner) TreeStats(minsup int, active []int) (nodes, items int) {
	if minsup < 1 {
		minsup = 1
	}
	a := m.rankArena(minsup, active, nil)
	return len(a.rootTree().item) - 1, len(a.order)
}

// mineTree is the recursive FP-Growth step: for each item in the tree
// (least frequent first), emit suffix+item and recurse into the item's
// conditional tree. Single-path trees short-circuit to combinations.
func (ctx *mineCtx) mineTree(t *flatTree, depth int, out *[]Itemset) error {
	if nodes, ok := t.singlePath(ctx.sp[:0]); ok {
		err := ctx.emitPathCombinations(t, nodes, out)
		ctx.sp = nodes[:0]
		return err
	}
	// Items in ascending support order for bottom-up growth, original item
	// id descending on ties (the historical emission order).
	lv := ctx.level(depth)
	items := lv.items[:0]
	for _, r := range t.ranks {
		if t.cnt[r] >= ctx.minsup {
			items = append(items, r)
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if t.cnt[items[i]] != t.cnt[items[j]] {
			return t.cnt[items[i]] < t.cnt[items[j]]
		}
		return ctx.order[items[i]] > ctx.order[items[j]]
	})
	lv.items = items
	for _, r := range items {
		newSuffix := make([]int, 0, len(ctx.suffix)+1)
		newSuffix = append(newSuffix, ctx.suffix...)
		newSuffix = append(newSuffix, ctx.order[r])
		*out = append(*out, Itemset{Items: newSuffix, Support: t.cnt[r]})

		if len(ctx.conditionalCounts(t, r)) == 0 {
			ctx.clearCounts()
			continue
		}
		cond := ctx.getTree()
		ctx.buildConditional(t, r, cond)
		ctx.suffix = append(ctx.suffix, ctx.order[r])
		err := ctx.mineTree(cond, depth+1, out)
		ctx.suffix = ctx.suffix[:len(ctx.suffix)-1]
		ctx.putTree(cond)
		if err != nil {
			return err
		}
	}
	return nil
}

// maxSinglePathItems bounds the frequent single-path prefix
// emitPathCombinations will enumerate: a path of n frequent nodes implies
// 2^n-1 itemsets, and the historical `1 << len(path)` mask overflowed int
// at 63 nodes, silently emitting nothing; past the bound Mine fails
// instead. 62 keeps the mask arithmetic exact in a uint64 while staying
// far beyond anything enumerable in practice.
const maxSinglePathItems = 62

// emitPathCombinations emits every non-empty combination of a single-path
// tree's nodes, appended to the current suffix, with the support of the
// deepest node in the combination. It refuses a path of more than
// maxSinglePathItems frequent nodes.
func (ctx *mineCtx) emitPathCombinations(t *flatTree, nodes []int32, out *[]Itemset) error {
	// Filter path nodes below minsup (the path is count-monotonic
	// decreasing, so frequent nodes form a prefix).
	n := 0
	for n < len(nodes) && t.count[nodes[n]] >= ctx.minsup {
		n++
	}
	nodes = nodes[:n]
	if len(nodes) > maxSinglePathItems {
		return fmt.Errorf(
			"fpgrowth: single-path tree with %d frequent nodes implies 2^%d-1 itemsets; refusing to enumerate more than 2^%d",
			len(nodes), len(nodes), maxSinglePathItems)
	}
	total := uint64(1) << uint(len(nodes))
	for mask := uint64(1); mask < total; mask++ {
		items := make([]int, 0, len(ctx.suffix)+len(nodes))
		items = append(items, ctx.suffix...)
		sup := 0
		for i := 0; i < len(nodes); i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, ctx.order[t.item[nodes[i]]])
				sup = t.count[nodes[i]] // deepest selected node
			}
		}
		*out = append(*out, Itemset{Items: items, Support: sup})
	}
	return nil
}
