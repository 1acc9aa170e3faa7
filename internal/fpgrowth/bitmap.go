package fpgrowth

import (
	"math/bits"
	"slices"
)

// Vertical bitmap projections (MAFIA, Burdick et al., ICDE 2001). Below a
// top-level header item r whose head-union-tail test missed, FPmax reads
// r's rest from bitmaps rather than from a conditional FP-tree (FPmax,
// Grahne & Zhu, FIMI 2003): each rest rank gets one row with a bit per
// window of r — per active transaction holding r — and a node of the
// recursion is a transaction mask over those bits plus the ranks it may
// still extend its itemset with. A header item's count is
// popcount(mask & row), its tail counts popcount(mask & row & row_x) over
// the node's lower ranks: the counts a conditional tree holds, so closure
// folding, focus and add are called with the same arguments in the same
// order, and the mined sets, their store order and every mining counter
// are those of the tree form (the tests keep it as the reference).
//
// A sparse child pays for every word of every row that way, so the same
// counts can also be taken by scanning the child's windows: the
// projection keeps each window's rest rows as a list, and a node on it
// scans its windows' lists when they hold fewer entries than the rows
// hold words.
//
// The rows and masks live on one per-worker word stack, ctx.bits: a node
// pushes its mask, and a node whose rows would shrink enough pushes them
// re-projected onto its own transactions (reproject); both are popped
// when the node returns.
//
// Mine walks the same projections of every top-level rank, with no store
// and no closure folding (mineAll, fpgrowth.go).

// mineCtx is one goroutine's mining state: reusable scratch buffers, the
// bitmap word stack and (for maximal mining) the local MFI store. Workers
// never share a ctx; the rank arena (with its rank->item order) is the
// only structure shared across workers, and it is read-only during
// mining.
type mineCtx struct {
	order  []int // rank -> original item id
	minsup int
	store  *mfiStore

	// suffix is Mine's current itemset (original item ids), stack-like;
	// maximal mining keeps its suffix in the store instead.
	suffix  []int
	condCnt []int   // rank-indexed conditional counts, cleared via touched
	touched []int32 // ranks dirtied in condCnt by the last conditionalCounts
	tail    []int32 // the frequent ones among touched
	closure []int32 // the tail ranks mineItem and mineBit fold into the suffix

	// The bitmap projections: the word stack their rows and masks live
	// on, their levels by depth, and the positions scratch of a
	// re-projection; the root projection's first word and width (its
	// transactions), each of its windows' rest rows — wrows[woffs[k]:
	// woffs[k+1]] for window k — and a count per row for scanning them.
	bits         []uint64
	blv          []bitLevel
	pos          []int32
	root, width  int
	woffs, wrows []int32
	wcnt         []int32

	visited, trees int64    // header items mined, conditional projections taken (telemetry)
	folds          [3]int64 // focus misses that folded a closure at depth 0, 1 and ≥ 2 (tests)
	chains         int64    // bitmap nodes of two or more ranks stored by the nested-chain test (tests)
	scans          int64    // bitmap nodes that counted by scanning their windows (tests)
}

func newMineCtx(order []int, minsup int) *mineCtx {
	return &mineCtx{
		order:   order,
		minsup:  minsup,
		condCnt: make([]int, len(order)),
	}
}

// bitLevel is one node of the bitmap recursion: the ranks its itemset may
// still be extended with, ascending, each with its row in the projection
// the node reads, and the node's mask. Row j spans words words of
// ctx.bits from base+j*words; the mask spans words words from mask. Bits
// past the projection's transactions are zero.
type bitLevel struct {
	ranks []int32
	rows  []int32
	base  int
	words int
	mask  int
}

// push returns the offset of n zeroed words pushed on ctx.bits.
func (ctx *mineCtx) push(n int) int {
	top := len(ctx.bits)
	ctx.bits = slices.Grow(ctx.bits, n)[:top+n]
	clear(ctx.bits[top:])
	return top
}

// row returns row j of lv's projection.
func (ctx *mineCtx) row(lv *bitLevel, j int32) []uint64 {
	off := lv.base + int(j)*lv.words
	return ctx.bits[off : off+lv.words]
}

// fillMask sets the low n bits of m.
func fillMask(m []uint64, n int) {
	for k := range m {
		switch {
		case n >= 64:
			m[k] = ^uint64(0)
		case n > 0:
			m[k] = 1<<n - 1
		}
		n -= 64
	}
}

// project lays rank r's rest (ascending) out as the bitmap projection the
// depth-1 node reads, one pass over r's windows: bit k of rest rank x's
// row is set when r's k-th window holds x, and the mask holds every
// window. The same pass lists each window's rest rows. condCnt, zero on
// entry, maps each rest rank to its row plus one while the bits are set.
func (ctx *mineCtx) project(a *rankArena, r int32, rest []int32) {
	// The recursion below takes one rest rank off per depth at least, so
	// the levels are allocated here and never move while it runs.
	for len(ctx.blv) < len(rest)+2 {
		ctx.blv = append(ctx.blv, bitLevel{})
	}
	support := a.support(r)
	words := (support + 63) / 64
	base := ctx.push((len(rest) + 1) * words)
	lv := &ctx.blv[1]
	lv.ranks = append(lv.ranks[:0], rest...)
	lv.rows = lv.rows[:0]
	for j, x := range rest {
		ctx.condCnt[x] = j + 1
		lv.rows = append(lv.rows, int32(j))
	}
	ctx.woffs, ctx.wrows = append(ctx.woffs[:0], 0), ctx.wrows[:0]
	for k, w := range a.windows(r) {
		word, bit := base+k>>6, uint64(1)<<(k&63)
		for _, x := range a.ranks[w.lo:w.hi] {
			if j := ctx.condCnt[x]; j > 0 {
				ctx.bits[word+(j-1)*words] |= bit
				ctx.wrows = append(ctx.wrows, int32(j-1))
			}
		}
		ctx.woffs = append(ctx.woffs, int32(len(ctx.wrows)))
	}
	for _, x := range rest {
		ctx.condCnt[x] = 0
	}
	ctx.wcnt = slices.Grow(ctx.wcnt[:0], len(rest))[:len(rest)]
	clear(ctx.wcnt)
	ctx.root, ctx.width = base, support
	lv.base, lv.words, lv.mask = base, words, base+len(rest)*words
	fillMask(ctx.bits[lv.mask:lv.mask+words], support)
}

// fpmaxBits is fpmax over the bitmap node at depth, whose itemset has the
// given support. The node's conditional tree would be a single path
// exactly when its rows, ascending, are nested within the mask — every
// transaction holding a rank holds the ranks below it — and then the
// suffix plus all of them is stored, with the support of the last.
func (ctx *mineCtx) fpmaxBits(depth, support int) {
	lv := &ctx.blv[depth]
	if ctx.nested(lv) {
		if n := len(lv.rows); n > 0 {
			support = ctx.count(lv, ctx.bits[lv.mask:lv.mask+lv.words], lv.rows[n-1])
			if n > 1 {
				ctx.chains++
			}
		}
		ctx.store.add(depth, lv.ranks, support)
		return
	}
	for i := len(lv.ranks) - 1; i >= 0; i-- {
		ctx.mineBit(depth, i)
	}
}

// nested reports whether lv's rows are nested within its mask, each in
// the one before it.
func (ctx *mineCtx) nested(lv *bitLevel) bool {
	m := ctx.bits[lv.mask : lv.mask+lv.words]
	for j := 1; j < len(lv.rows); j++ {
		lo, hi := ctx.row(lv, lv.rows[j-1]), ctx.row(lv, lv.rows[j])
		for k, w := range m {
			if w&hi[k]&^lo[k] != 0 {
				return false
			}
		}
	}
	return true
}

// count returns popcount(m & row j of lv).
func (ctx *mineCtx) count(lv *bitLevel, m []uint64, j int32) int {
	row := ctx.row(lv, j)
	c := 0
	for k, w := range m {
		c += bits.OnesCount64(w & row[k])
	}
	return c
}

// mineBit is mineItem for the i-th rank of the bitmap node at depth: the
// child's mask is the node's mask and the rank's row, its support that
// mask's popcount, and each lower rank's conditional count the popcount
// of the child mask and its row — or, on the root projection, its count
// over the row lists of the child's windows, when the windows' lists are
// shorter than the rows: support·len(wrows)/width list entries, on
// average, against i·words words. The lower ranks are ascending already,
// so the closure and the rest come out sorted, the rest straight into the
// child level.
func (ctx *mineCtx) mineBit(depth, i int) {
	ctx.visited++
	lv, child := &ctx.blv[depth], &ctx.blv[depth+1]
	r := lv.ranks[i]
	top := len(ctx.bits)
	mask := ctx.push(lv.words)
	m := ctx.bits[mask : mask+lv.words]
	parent, hr := ctx.bits[lv.mask:lv.mask+lv.words], ctx.row(lv, lv.rows[i])
	support := 0
	for k := range m {
		m[k] = parent[k] & hr[k]
		support += bits.OnesCount64(m[k])
	}
	closure, ranks, rows := ctx.closure[:0], child.ranks[:0], child.rows[:0]
	scan := lv.base == ctx.root && support*len(ctx.wrows) < i*lv.words*ctx.width
	if scan {
		ctx.scans++
		for k, w := range m {
			for ; w != 0; w &= w - 1 {
				t := k<<6 + bits.TrailingZeros64(w)
				for _, j := range ctx.wrows[ctx.woffs[t]:ctx.woffs[t+1]] {
					ctx.wcnt[j]++
				}
			}
		}
	}
	for j, x := range lv.ranks[:i] {
		var c int
		if scan {
			c = int(ctx.wcnt[lv.rows[j]])
		} else {
			c = ctx.count(lv, m, lv.rows[j])
		}
		switch {
		case c == support:
			closure = append(closure, x)
		case c >= ctx.minsup:
			ranks = append(ranks, x)
			rows = append(rows, lv.rows[j])
		}
	}
	if scan {
		clear(ctx.wcnt)
	}
	ctx.closure, child.ranks, child.rows = closure, ranks, rows
	if !ctx.store.focus(depth, r, closure, ranks) {
		ctx.missed(depth, closure)
		child.base, child.words, child.mask = lv.base, lv.words, mask
		if words := (support + 63) / 64; 2*words <= lv.words && len(rows)*(lv.words-words) > support {
			ctx.reproject(child, support)
		}
		ctx.fpmaxBits(depth+1, support)
	}
	ctx.bits = ctx.bits[:top]
}

// reproject rewrites lv's rows onto its own transactions — each row's
// bits at the mask's set positions, packed — and makes its mask the
// support low bits. Re-packing takes a step per row per transaction of
// the node, so mineBit takes it only where it pays: where the rows shrink
// to half their words or fewer, which keeps every projection on the stack
// at most half the size of the one below it, and one count over all of
// them saves more words than the node's support.
func (ctx *mineCtx) reproject(lv *bitLevel, support int) {
	pos := ctx.pos[:0]
	for k, w := range ctx.bits[lv.mask : lv.mask+lv.words] {
		for ; w != 0; w &= w - 1 {
			pos = append(pos, int32(k<<6+bits.TrailingZeros64(w)))
		}
	}
	ctx.pos = pos
	words := (support + 63) / 64
	base := ctx.push((len(lv.rows) + 1) * words)
	for j, row := range lv.rows {
		src := ctx.row(lv, row)
		dst := ctx.bits[base+j*words : base+(j+1)*words]
		for b, p := range pos {
			dst[b>>6] |= (src[p>>6] >> (p & 63) & 1) << (b & 63)
		}
		lv.rows[j] = int32(j)
	}
	lv.base, lv.words, lv.mask = base, words, base+len(lv.rows)*words
	fillMask(ctx.bits[lv.mask:lv.mask+words], support)
}
