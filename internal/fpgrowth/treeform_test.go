package fpgrowth

import "slices"

// The conditional FP-tree form of FPmax (Grahne & Zhu, FIMI 2003): below
// a focus miss, header item r's rest is reinserted into a conditional tree
// and mined from it, at every depth. The miner projects onto bitmaps
// instead (bitmap.go), which make the same focus and add calls in the
// same order; this form is the reference TestProjectionFormsAgree and
// TestRankArenaMatchesRootTree hold it to, over the rank arena or a root
// tree at depth 0.

// treeSource is where mineItemTree reads a header item's prefix paths
// from: the rank arena or a root tree at depth 0, a conditional tree
// below.
type treeSource interface {
	prefixSource
	// support returns r's support: the transactions r's paths carry.
	support(r int32) int
	// insertPrefixes inserts r's prefix paths into out, ascending and
	// filtered to the ranks whose cnt reaches minsup, with the counts
	// they carry. path is scratch, returned for reuse.
	insertPrefixes(r int32, cnt []int, minsup int, path []int32, out *flatTree) []int32
}

func (t *flatTree) support(r int32) int { return t.cnt[r] }

// insertPrefixes inserts each of r's windows into out, filtered to the
// ranks whose cnt reaches minsup, with count one; the windows are
// ascending already. path is scratch, returned for reuse.
func (a *rankArena) insertPrefixes(r int32, cnt []int, minsup int, path []int32, out *flatTree) []int32 {
	for _, w := range a.windows(r) {
		path = path[:0]
		for _, ri := range a.ranks[w.lo:w.hi] {
			if cnt[ri] >= minsup {
				path = append(path, ri)
			}
		}
		if len(path) > 0 {
			out.insertPath(path, 1)
		}
	}
	return path[:0]
}

// buildConditionalFrom is buildConditional over any treeSource.
func (ctx *mineCtx) buildConditionalFrom(src treeSource, r int32, out *flatTree) {
	ctx.path = src.insertPrefixes(r, ctx.condCnt, ctx.minsup, ctx.path, out)
	ctx.clearCounts()
}

// mineItemTree is mineItem with a conditional tree for the projection, at
// any depth: the same counts, closure split and focus test, then the
// rest's conditional tree mined by fpmaxTree.
func (ctx *mineCtx) mineItemTree(src treeSource, r int32, depth int) {
	ctx.visited++
	support := src.support(r)
	tail := ctx.conditionalCounts(src, r)
	slices.Sort(tail)
	// A closure item's count is zeroed so that the conditional tree drops
	// it.
	closure, rest := ctx.closure[:0], tail[:0]
	for _, x := range tail {
		if ctx.condCnt[x] == support {
			closure = append(closure, x)
			ctx.condCnt[x] = 0
		} else {
			rest = append(rest, x)
		}
	}
	ctx.closure = closure
	if ctx.store.focus(depth, r, closure, rest) {
		ctx.clearCounts()
		return
	}
	ctx.missed(depth, closure)
	cond := ctx.getTree()
	ctx.buildConditionalFrom(src, r, cond)
	// Insertion listed the same ranks in first-touch order.
	cond.ranks = append(cond.ranks[:0], rest...)
	ctx.fpmaxTree(cond, depth+1, support)
	ctx.putTree(cond)
}

// fpmaxTree mines maximal itemsets from the conditional tree t of the
// depth ranks the store is focused on, whose itemset has the given
// support: a single path stores the suffix plus the whole path untested
// (the set mineItemTree just found unsubsumed), and otherwise each header
// item is mined deepest-first.
func (ctx *mineCtx) fpmaxTree(t *flatTree, depth, support int) {
	if nodes, ok := t.singlePath(ctx.sp[:0]); ok {
		// Root-side first is ascending rank order; the node scratch is
		// rewritten to the nodes' ranks in place.
		for i, n := range nodes {
			support = t.count[n]
			nodes[i] = t.item[n]
		}
		ctx.store.add(depth, nodes, support)
		ctx.sp = nodes[:0]
		return
	}
	for i := len(t.ranks) - 1; i >= 0; i-- {
		ctx.mineItemTree(t, t.ranks[i], depth)
	}
}
