package fpgrowth

import "slices"

// The conditional FP-tree form of FPmax (Grahne & Zhu, FIMI 2003): below
// a focus miss, header item r's rest is reinserted into a conditional tree
// and mined from it, at every depth. The miner projects onto bitmaps
// instead (bitmap.go), which make the same focus and add calls in the
// same order; this form is the reference TestProjectionFormsAgree and
// TestRankArenaMatchesRootTree hold it to, over the rank arena or a root
// tree at depth 0.

// flatTree is one FP-tree. Nodes live in contiguous parallel slices
// indexed by int32 handles (index 0 is always the root), with integer
// parent/child/sibling links. Items are stored as structural ranks, so
// header tables and per-item totals are rank-indexed slices. The zero
// value is not usable; construct with newFlatTree and recycle with reset.
type flatTree struct {
	// Per-node arrays. Index 0 is the root (item -1, no parent).
	item    []int32 // structural rank of the node's item; -1 at the root
	count   []int   // transaction count passing through the node
	parent  []int32 // parent node index; -1 at the root
	child   []int32 // first child node index; -1 when leaf
	sibling []int32 // next sibling under the same parent; -1 at the end
	hlink   []int32 // next node holding the same item (header chain); -1 at the end

	// Rank-indexed tables, length R (the level's frequent-item count).
	head    []int32 // rank -> first node in the item's header chain; -1 when absent
	cnt     []int   // rank -> total support of the item in this tree
	rootkid []int32 // rank -> the root's child holding the rank; -1 when absent

	// ranks lists the ranks present in this tree (cnt > 0), in first-touch
	// order. It bounds reset to the dirty entries instead of O(R).
	ranks []int32
}

// newFlatTree returns an empty tree over a universe of nRanks items, with
// node storage preallocated for nodeCap nodes (plus the root).
func newFlatTree(nRanks, nodeCap int) *flatTree {
	t := &flatTree{
		item:    make([]int32, 0, nodeCap+1),
		count:   make([]int, 0, nodeCap+1),
		parent:  make([]int32, 0, nodeCap+1),
		child:   make([]int32, 0, nodeCap+1),
		sibling: make([]int32, 0, nodeCap+1),
		hlink:   make([]int32, 0, nodeCap+1),
		head:    make([]int32, nRanks),
		cnt:     make([]int, nRanks),
		rootkid: make([]int32, nRanks),
	}
	for i := range t.head {
		t.head[i] = -1
		t.rootkid[i] = -1
	}
	t.pushRoot()
	return t
}

func (t *flatTree) pushRoot() {
	t.item = append(t.item, -1)
	t.count = append(t.count, 0)
	t.parent = append(t.parent, -1)
	t.child = append(t.child, -1)
	t.sibling = append(t.sibling, -1)
	t.hlink = append(t.hlink, -1)
}

// reset empties the tree for reuse, clearing only the rank entries the
// previous use touched.
func (t *flatTree) reset() {
	for _, r := range t.ranks {
		t.head[r] = -1
		t.cnt[r] = 0
		t.rootkid[r] = -1
	}
	t.ranks = t.ranks[:0]
	t.item = t.item[:0]
	t.count = t.count[:0]
	t.parent = t.parent[:0]
	t.child = t.child[:0]
	t.sibling = t.sibling[:0]
	t.hlink = t.hlink[:0]
	t.pushRoot()
}

// insertPath adds one transaction path (ranks ascending — the structural
// item order) with the given count.
func (t *flatTree) insertPath(path []int32, count int) {
	node := int32(0)
	for depth, r := range path {
		var c int32 = -1
		if depth == 0 {
			c = t.rootkid[r]
		} else {
			for c = t.child[node]; c != -1 && t.item[c] != r; c = t.sibling[c] {
			}
		}
		if c == -1 {
			c = int32(len(t.item))
			t.item = append(t.item, r)
			t.count = append(t.count, 0)
			t.parent = append(t.parent, node)
			t.child = append(t.child, -1)
			t.sibling = append(t.sibling, t.child[node])
			t.child[node] = c
			if t.head[r] == -1 && t.cnt[r] == 0 {
				t.ranks = append(t.ranks, r)
			}
			t.hlink = append(t.hlink, t.head[r])
			t.head[r] = c
			if depth == 0 {
				t.rootkid[r] = c
			}
		}
		t.count[c] += count
		t.cnt[r] += count
		node = c
	}
}

// rootTree builds the root FP-tree of a by inserting every row.
func rootTree(a *rankArena) *flatTree {
	t := newFlatTree(len(a.order), len(a.ranks))
	for i := 1; i < len(a.rows); i++ {
		t.insertPath(a.ranks[a.rows[i-1]:a.rows[i]], 1)
	}
	return t
}

// singlePath reports whether the tree is a single chain and, when it is,
// appends the chain's node indices (root-side first) to buf.
func (t *flatTree) singlePath(buf []int32) ([]int32, bool) {
	node := int32(0)
	for {
		c := t.child[node]
		if c == -1 {
			return buf, true
		}
		if t.sibling[c] != -1 {
			return buf, false
		}
		buf = append(buf, c)
		node = c
	}
}

// treeSource is where the tree form reads a header item's prefix paths
// from: the rank arena or a root tree at depth 0, a conditional tree
// below.
type treeSource interface {
	// countPrefixes adds, for every rank on r's prefix paths, the
	// transactions the path carries into cnt, appends the ranks it moves
	// off zero to touched, and returns touched.
	countPrefixes(r int32, cnt []int, touched []int32) []int32
	// support returns r's support: the transactions r's paths carry.
	support(r int32) int
	// insertPrefixes inserts r's prefix paths into out, ascending and
	// filtered to the ranks whose cnt reaches minsup, with the counts
	// they carry. path is scratch, returned for reuse.
	insertPrefixes(r int32, cnt []int, minsup int, path []int32, out *flatTree) []int32
}

func (t *flatTree) support(r int32) int { return t.cnt[r] }

// countPrefixes walks r's header chain and each node's parent path.
func (t *flatTree) countPrefixes(r int32, cnt []int, touched []int32) []int32 {
	for n := t.head[r]; n != -1; n = t.hlink[n] {
		c := t.count[n]
		for p := t.parent[n]; p != 0; p = t.parent[p] {
			ri := t.item[p]
			if cnt[ri] == 0 {
				touched = append(touched, ri)
			}
			cnt[ri] += c
		}
	}
	return touched
}

// insertPrefixes reinserts each of r's nodes' parent paths with the
// node's count.
func (t *flatTree) insertPrefixes(r int32, cnt []int, minsup int, path []int32, out *flatTree) []int32 {
	for n := t.head[r]; n != -1; n = t.hlink[n] {
		path = path[:0]
		for p := t.parent[n]; p != 0; p = t.parent[p] {
			ri := t.item[p]
			if cnt[ri] >= minsup {
				path = append(path, ri)
			}
		}
		if len(path) == 0 {
			continue
		}
		// The parent walk yields ranks leaf-side first (descending);
		// insertion wants ascending rank order.
		slices.Reverse(path)
		out.insertPath(path, t.count[n])
	}
	return path[:0]
}

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

// treeCtx is a mining context for the tree form: the miner's, plus the
// scratch only conditional trees need — a pool of recycled trees, a
// prefix path being inserted and a single path's nodes.
type treeCtx struct {
	*mineCtx
	pool     []*flatTree
	path, sp []int32
}

func newTreeCtx(order []int, minsup int) *treeCtx {
	return &treeCtx{mineCtx: newMineCtx(order, minsup)}
}

// getTree pops a recycled conditional tree (or allocates one) sized to the
// level's rank universe.
func (ctx *treeCtx) getTree() *flatTree {
	if n := len(ctx.pool); n > 0 {
		t := ctx.pool[n-1]
		ctx.pool = ctx.pool[:n-1]
		return t
	}
	return newFlatTree(len(ctx.order), 16)
}

// putTree resets a conditional tree and returns it to the pool.
func (ctx *treeCtx) putTree(t *flatTree) {
	t.reset()
	ctx.pool = append(ctx.pool, t)
}

// conditionalCounts is mineCtx.conditionalCounts over any treeSource.
func (ctx *treeCtx) conditionalCounts(src treeSource, r int32) []int32 {
	ctx.touched = src.countPrefixes(r, ctx.condCnt, ctx.touched[:0])
	tail := ctx.tail[:0]
	for _, ri := range ctx.touched {
		if ctx.condCnt[ri] >= ctx.minsup {
			tail = append(tail, ri)
		}
	}
	ctx.tail = tail
	return tail
}

// buildConditional fills out with the conditional tree of rank r in src
// from the counts conditionalCounts just took, and clears them: each
// prefix path is reinserted filtered to the items whose conditional
// support reaches minsup.
func (ctx *treeCtx) buildConditional(src treeSource, r int32, out *flatTree) {
	ctx.path = src.insertPrefixes(r, ctx.condCnt, ctx.minsup, ctx.path, out)
	ctx.clearCounts()
}

// mineItemTree is mineItem with a conditional tree for the projection, at
// any depth: the same counts, closure split and focus test, then the
// rest's conditional tree mined by fpmaxTree.
func (ctx *treeCtx) mineItemTree(src treeSource, r int32, depth int) {
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
	ctx.buildConditional(src, r, cond)
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
func (ctx *treeCtx) fpmaxTree(t *flatTree, depth, support int) {
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
