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
// fans out across a worker pool (mfi.go) while staying bit-identical to
// the serial result.
package fpgrowth

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
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
	// Metrics, when set, receives tree-build and mining timings plus
	// mined-itemset counts (fpgrowth_* families). Nil disables.
	Metrics *telemetry.Registry
	// Trace, when set, parents the per-call tree-build/mine spans and
	// the per-worker fan-out spans. Callers that mine repeatedly (the
	// MFIBlocks minsup loop) re-point it at each iteration's span; nil
	// traces nothing.
	Trace *trace.Span
	// Workers bounds the goroutines MineMaximal fans the top-level header
	// items out to: 0 means GOMAXPROCS, 1 runs the exact serial path. The
	// mined MFIs are bit-identical for every worker count.
	Workers int
	// scratch is the reusable root projection tree: buildFlatTree recycles
	// it across calls via the dirty-rank reset instead of allocating a
	// fresh arena per minsup level. It makes repeated mining through one
	// Miner non-reentrant — the MFIBlocks loop already mines sequentially.
	scratch    *flatTree
	scratchBuf []int32
}

// NewMiner builds a miner over the transactions. Each transaction must be
// a set (no duplicate ids) of non-negative item ids; order is irrelevant.
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
	t0 := time.Now()
	tree, order := m.buildFlatTree(minsup, active, nil)
	m.Metrics.Timer(telemetry.FamilyFPGrowthTreeBuild).Observe(time.Since(t0))
	t1 := time.Now()
	var out []Itemset
	ctx := newMineCtx(order, minsup)
	if err := ctx.mineTree(tree, 0, &out); err != nil {
		return nil, err
	}
	for i := range out {
		sort.Ints(out[i].Items)
	}
	m.Metrics.Timer(telemetry.FamilyFPGrowthMine).Observe(time.Since(t1))
	m.Metrics.Counter("fpgrowth_itemsets_total").Add(int64(len(out)))
	return out, nil
}

// TreeStats builds the rank-ordered FP-tree for the given support level and
// reports its size: the node count (excluding the root) and the number of
// frequent items. It exposes the tree-construction hot path in isolation
// for benchmarks (BenchmarkTreeBuild, the repo benchmark's
// fpgrowth.tree_build_ms) and introspection.
func (m *Miner) TreeStats(minsup int, active []int) (nodes, items int) {
	if minsup < 1 {
		minsup = 1
	}
	tree, order := m.buildFlatTree(minsup, active, nil)
	return len(tree.item) - 1, len(order)
}

// buildFlatTree constructs the initial FP-tree over frequent items only,
// with items ordered by descending frequency, and returns it together with
// the rank -> item-id order (lower rank = closer to the root on every
// path). When freq is non-nil it must hold the per-item-id occurrence
// counts over the active transactions, sparing the counting pass — the
// incremental path mfiblocks.Run maintains across its minsup iterations.
//
// The tree is the miner's scratch tree, recycled across calls (dirty-rank
// reset + rank-table growth), so each mining call must finish with the
// returned tree before the next one starts — true of every caller,
// including the MFIBlocks minsup loop.
func (m *Miner) buildFlatTree(minsup int, active []int, freq []int) (*flatTree, []int) {
	counts := freq
	if counts == nil {
		counts = make([]int, m.maxItem+1)
		m.txns.forEachActive(active, func(txn []int32) {
			for _, it := range txn {
				counts[it]++
			}
		})
	}
	limit := m.maxItem + 1
	if limit > len(counts) {
		limit = len(counts)
	}
	order := make([]int, 0, limit)
	totalOccurrences := 0
	for it := 0; it < limit; it++ {
		if counts[it] >= minsup && !m.isPruned(it) {
			order = append(order, it)
			totalOccurrences += counts[it]
		}
	}
	// Descending frequency, ascending id on ties: ascending rank is the
	// structural item order on every tree path.
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	rankOf := make([]int32, m.maxItem+1)
	for i := range rankOf {
		rankOf[i] = -1
	}
	for r, it := range order {
		rankOf[it] = int32(r)
	}

	tree := m.scratch
	if tree == nil {
		tree = newFlatTree(len(order), totalOccurrences)
		m.scratch = tree
	} else {
		tree.reset()
		tree.growRanks(len(order))
	}
	if cap(m.scratchBuf) == 0 {
		m.scratchBuf = make([]int32, 0, 32)
	}
	buf := m.scratchBuf
	m.txns.forEachActive(active, func(txn []int32) {
		buf = buf[:0]
		for _, it := range txn {
			if r := rankOf[it]; r >= 0 {
				buf = append(buf, r)
			}
		}
		if len(buf) == 0 {
			return
		}
		// Transactions hold each item at most once, so the rank list is
		// duplicate-free; ascending rank order is the insertion order.
		sortInt32(buf)
		tree.insertPath(buf, 1)
	})
	m.scratchBuf = buf[:0]
	return tree, order
}

// sortInt32 sorts small rank buffers ascending. Insertion sort beats the
// generic sort for the short, mostly-presorted per-transaction buffers.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
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
