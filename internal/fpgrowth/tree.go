package fpgrowth

// Flat, arena-style FP-tree. Nodes live in contiguous parallel slices
// indexed by int32 handles (index 0 is always the root), with integer
// parent/child/sibling links instead of per-node maps. Items are stored as
// structural ranks — dense 0..R-1 positions in the level's descending
// frequency order (rankArena) — so header tables and per-item totals are
// rank-indexed slices. The layout removes the pointer-chasing and per-node
// map allocations of the original map-based tree: building a tree is a
// handful of slice allocations, and conditional trees are recycled through
// a per-goroutine pool (see mineCtx).

// flatTree is one FP-tree. The zero value is not usable; construct with
// newFlatTree and recycle with reset.
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

	// ranks lists the ranks present in this tree (cnt > 0). It bounds reset
	// to the dirty entries instead of O(R). Insertion appends in first-touch
	// order; maximal mining sorts a finished conditional tree's list
	// ascending in place (mineItem).
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
// item order) with the given count. Root children are found through the
// rank-indexed rootkid table in O(1); deeper levels use a linear sibling
// scan, whose branching is small in practice.
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

// mineCtx is one goroutine's mining state: reusable scratch buffers, a
// conditional-tree pool, and (for maximal mining) the local MFI store.
// Workers never share a ctx; the rank arena (with its rank->item order)
// is the only structure shared across workers, and it is read-only during
// mining.
type mineCtx struct {
	order  []int // rank -> original item id
	minsup int
	store  *mfiStore

	// suffix is Mine's current itemset prefix (original item ids),
	// stack-like; maximal mining keeps its suffix in the store instead.
	suffix  []int
	condCnt []int   // rank-indexed conditional counts, cleared via touched
	touched []int32 // ranks dirtied in condCnt by the last conditionalCounts
	tail    []int32 // the frequent ones among touched
	closure []int32 // the tail ranks mineItem folds into the suffix
	path    []int32 // one prefix path being inserted
	sp      []int32 // singlePath node scratch
	levels  []levelScratch
	pool    []*flatTree

	// The bitmap form of maximal mining (bitmap.go): the word stack its
	// rows and masks live on, its levels by depth, and the positions
	// scratch of a re-projection; the root projection's first word and
	// width (its transactions), each of its windows' rest rows —
	// wrows[woffs[k]:woffs[k+1]] for window k — and a count per row for
	// scanning them.
	bits         []uint64
	blv          []bitLevel
	pos          []int32
	root, width  int
	woffs, wrows []int32
	wcnt         []int32

	visited, trees int64    // header items mined, conditional projections taken (telemetry)
	folds          [3]int64 // focus misses that folded a closure at depth 0, 1 and ≥ 2 (tests)
	forms          [2]int64 // depth-0 misses projected as a tree and as bitmaps (tests)
	chains         int64    // bitmap nodes of two or more ranks stored by the nested-chain test (tests)
	scans          int64    // bitmap nodes that counted by scanning their windows (tests)
	treeOnly       bool     // tests: project every depth-0 miss as a tree, the bitmap form's reference
}

// levelScratch holds the per-recursion-depth buffer that must survive the
// recursive calls Mine makes while iterating one tree level. Maximal
// mining needs none: it walks the tree's own sorted rank list, and its
// per-level focus lists live in the store.
type levelScratch struct {
	items []int32
}

func newMineCtx(order []int, minsup int) *mineCtx {
	return &mineCtx{
		order:   order,
		minsup:  minsup,
		condCnt: make([]int, len(order)),
	}
}

// level returns the scratch buffers for recursion depth d.
func (ctx *mineCtx) level(d int) *levelScratch {
	for len(ctx.levels) <= d {
		ctx.levels = append(ctx.levels, levelScratch{})
	}
	return &ctx.levels[d]
}

// getTree pops a recycled conditional tree (or allocates one) sized to the
// level's rank universe.
func (ctx *mineCtx) getTree() *flatTree {
	if n := len(ctx.pool); n > 0 {
		t := ctx.pool[n-1]
		ctx.pool = ctx.pool[:n-1]
		return t
	}
	return newFlatTree(len(ctx.order), 16)
}

// putTree resets a conditional tree and returns it to the pool.
func (ctx *mineCtx) putTree(t *flatTree) {
	t.reset()
	ctx.pool = append(ctx.pool, t)
}

// prefixSource is where mineItem reads a header item's prefix paths
// from: the level's rank arena at the top level, a conditional tree below.
type prefixSource interface {
	// support returns r's support: the transactions r's paths carry.
	support(r int32) int
	// countPrefixes adds, for every rank on r's prefix paths, the
	// transactions the path carries into cnt, appends the ranks it moves
	// off zero to touched, and returns touched.
	countPrefixes(r int32, cnt []int, touched []int32) []int32
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
		for l, rr := 0, len(path)-1; l < rr; l, rr = l+1, rr-1 {
			path[l], path[rr] = path[rr], path[l]
		}
		out.insertPath(path, t.count[n])
	}
	return path[:0]
}

// conditionalCounts accumulates the conditional item counts along r's
// prefix paths in src into condCnt and returns the ranks whose
// conditional support reaches minsup, unordered, in scratch the next call
// overwrites. The counts stay until buildConditional or clearCounts.
func (ctx *mineCtx) conditionalCounts(src prefixSource, r int32) []int32 {
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

// clearCounts zeroes the counts conditionalCounts left behind.
func (ctx *mineCtx) clearCounts() {
	for _, ri := range ctx.touched {
		ctx.condCnt[ri] = 0
	}
}

// buildConditional fills out with the conditional tree of rank r in src
// from the counts conditionalCounts just took, and clears them: each
// prefix path is reinserted filtered to the items whose conditional
// support reaches minsup.
func (ctx *mineCtx) buildConditional(src prefixSource, r int32, out *flatTree) {
	ctx.path = src.insertPrefixes(r, ctx.condCnt, ctx.minsup, ctx.path, out)
	ctx.clearCounts()
}
