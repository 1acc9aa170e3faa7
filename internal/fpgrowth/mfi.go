package fpgrowth

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// MineMaximal returns only the maximal frequent itemsets: frequent itemsets
// with no frequent strict superset (over the same active transactions and
// minsup). Singleton MFIs are included. Unlike Mine followed by
// FilterMaximal, maximal sets are mined directly (FPmax-style): a subtree
// whose head ∪ tail is already contained in a stored MFI is pruned, which
// avoids the exponential enumeration of all frequent itemsets.
//
// Mining fans the top-level header items out across Workers goroutines,
// each mining its conditional subtrees into a worker-local MFI store; the
// stores are merged in deterministic worker order and swept by
// filterMaximal, so the output is bit-identical for every worker count.
func (m *Miner) MineMaximal(minsup int, active []int) []Itemset {
	return m.mineMaximal(minsup, active, nil)
}

// MineMaximalFreq is MineMaximal with caller-supplied item frequencies:
// freq[id] must be the occurrence count of item id over the active
// transactions. Callers that maintain frequencies incrementally (like
// mfiblocks.Run, which decrements counts as records become covered) spare
// the full counting pass a plain MineMaximal performs per call.
func (m *Miner) MineMaximalFreq(minsup int, active []int, freq []int) []Itemset {
	return m.mineMaximal(minsup, active, freq)
}

func (m *Miner) mineMaximal(minsup int, active []int, freq []int) []Itemset {
	if minsup < 1 {
		minsup = 1
	}
	if m.Shards > 1 {
		return m.mineMaximalSharded(minsup, active, freq)
	}
	t0 := time.Now()
	// KindSetup: node and item counts describe the build, not the mined
	// workload — keeping the build spans out of the Canonical tree is
	// what lets every shard count canonicalize identically.
	tsp := m.Trace.Child("tree_build", trace.WithKind(trace.KindSetup))
	tree, order := m.buildFlatTree(minsup, active, freq)
	tsp.Attr("nodes", int64(len(tree.item)-1)).Attr("items", int64(len(order))).End()
	m.Metrics.Timer(telemetry.FamilyFPGrowthTreeBuild).Observe(time.Since(t0))
	t1 := time.Now()
	msp := m.Trace.Child("mine", trace.WithKind(trace.KindOp)).Attr("minsup", int64(minsup))
	defer msp.End()

	// Top-level header items deepest-first (descending structural rank):
	// an item's conditional tree only contains items processed after it in
	// the serial order, so no stored set is ever subsumed by a later one
	// within a worker. The root tree holds exactly the frequent items, so
	// every rank is a top-level item.
	top := make([]int32, 0, len(order))
	for r := len(order) - 1; r >= 0; r-- {
		if tree.cnt[r] >= minsup {
			top = append(top, int32(r))
		}
	}

	sets := m.mineTops(msp, tree, order, top, minsup)

	// Maximality sweep over the merged candidates. For Workers=1 this is
	// the historical safety net (the structural-order argument already
	// guarantees no stored set is subsumed by a later one); for Workers>1
	// it also removes the cross-worker redundancy, making the output
	// independent of the fan-out.
	return m.finishMaximal(msp, sets, order, t1)
}

// finishMaximal is the merge tail shared by the monolithic and
// shard-local paths: the global maximality sweep over the rank-space
// candidates, their translation to sorted item ids, the canonical sort,
// mining metrics, and the mine span's workload attribute. Because both
// paths feed their candidate stores through the same sweep and sort,
// the returned MFIs are bit-identical however the candidates were
// produced.
func (m *Miner) finishMaximal(msp *trace.Span, sets []rankSet, order []int, t1 time.Time) []Itemset {
	kept := filterMaximal(sets, len(order))
	out := slices.Grow([]Itemset(nil), len(kept))
	for _, k := range kept {
		items := make([]int, len(sets[k].ranks))
		for j, r := range sets[k].ranks {
			items[j] = order[r]
		}
		sort.Ints(items)
		out = append(out, Itemset{Items: items, Support: sets[k].support})
	}
	sortCanonical(out)
	m.Metrics.Timer(telemetry.FamilyFPGrowthMine).Observe(time.Since(t1))
	m.Metrics.Counter("fpgrowth_mfis_total").Add(int64(len(out)))
	msp.Attr("mfis", int64(len(out)))
	return out
}

// sortCanonical orders itemsets lexicographically by Items, a prefix
// before its extensions — the order every MFI list leaves this package in.
func sortCanonical(sets []Itemset) {
	slices.SortFunc(sets, func(a, b Itemset) int { return slices.Compare(a.Items, b.Items) })
}

// mineTops runs the FPmax top-item loop over the given top-level ranks
// of tree (already ordered deepest-first), fanning the items out across
// the worker pool with worker-local MFI stores, and returns the
// concatenated rank-space candidate sets in deterministic worker order.
// The caller owns the final filterMaximal sweep; both the monolithic and
// the shard-local paths feed it through here.
func (m *Miner) mineTops(parent *trace.Span, tree *flatTree, order []int, top []int32, minsup int) []rankSet {
	workers := m.workers()
	if workers > len(top) {
		workers = len(top)
	}
	m.Metrics.Gauge(telemetry.FamilyFPGrowthWorkers).Set(float64(workers))

	var sets []rankSet
	switch {
	case len(top) == 0:
		// No frequent items: nothing to mine.
	case workers <= 1:
		ctx := newMineCtx(order, minsup)
		ctx.store = newMFIStore(len(order))
		for _, r := range top {
			ctx.mineItem(tree, r, 0)
		}
		sets = ctx.store.sets
	default:
		// Deterministic round-robin assignment: worker w owns top[w],
		// top[w+W], ... — contiguous chunks would hand all the cheap
		// deep-rank items to one worker and the expensive shallow ones to
		// another. Each worker keeps the serial deepest-first order within
		// its share, preserving most of the store's pruning power;
		// cross-worker redundancy is swept by filterMaximal.
		stores := make([]*mfiStore, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wsp := parent.Child("mine_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
				ctx := newMineCtx(order, minsup)
				ctx.store = newMFIStore(len(order))
				for i := w; i < len(top); i += workers {
					ctx.mineItem(tree, top[i], 0)
				}
				stores[w] = ctx.store
				wsp.Attr("sets", int64(len(ctx.store.sets))).End()
			}(w)
		}
		wg.Wait()
		t2 := time.Now()
		total := 0
		for _, s := range stores {
			total += len(s.sets)
		}
		sets = make([]rankSet, 0, total)
		for _, s := range stores {
			sets = append(sets, s.sets...)
		}
		m.Metrics.Timer(telemetry.FamilyFPGrowthMerge).Observe(time.Since(t2))
	}
	return sets
}

// mineItem runs header item r of tree t — the root tree at depth 0, a
// conditional tree below — under the depth ranks the store is focused on:
// build r's conditional tree and, unless a stored set already contains
// suffix ∪ {r} ∪ every item of it (head-union-tail pruning; with an empty
// conditional tree this is the maximality test of suffix ∪ {r} itself),
// mine it.
//
// Nothing is stored after the recursion returns. A non-empty conditional
// tree means suffix ∪ {r, x} is frequent, and fpmax never returns without
// the store holding a strict superset of its suffix: a single path stores
// suffix ∪ path; otherwise the first item of the loop stores, is pruned
// by, or (by induction) recurses into a superset of suffix ∪ {item}. The
// bare suffix ∪ {r} is therefore never maximal there.
func (ctx *mineCtx) mineItem(t *flatTree, r int32, depth int) {
	cond := ctx.getTree()
	ctx.buildConditional(t, r, cond)
	// Ascending ranks: the sorted tail the store tests, and the order
	// fpmax walks backwards. reset does not care about the order.
	slices.Sort(cond.ranks)
	if !ctx.store.focus(depth, r, cond.ranks) {
		ctx.fpmax(cond, depth+1, t.cnt[r])
	}
	ctx.putTree(cond)
}

// fpmax mines maximal itemsets from the conditional tree t of the depth
// ranks the store is focused on, whose itemset has the given support.
// It opens with no head-union-tail test of its own: mineItem has just
// missed on exactly suffix ∪ t.ranks and stored nothing since, so the
// test would scan the same list to the same miss.
func (ctx *mineCtx) fpmax(t *flatTree, depth, support int) {
	if nodes, ok := t.singlePath(ctx.sp[:0]); ok {
		// The only maximal candidate is the suffix plus the whole path
		// (empty when nothing extends the suffix) — the set mineItem just
		// found unsubsumed, so it is stored untested. Every node of a
		// conditional tree's single path is frequent: buildConditional
		// kept only frequent items and each sits in one node. The node
		// scratch is rewritten to the nodes' ranks in place; root-side
		// first is ascending rank order.
		for i, n := range nodes {
			support = t.count[n]
			nodes[i] = t.item[n]
		}
		ctx.store.add(depth, nodes, support)
		ctx.sp = nodes[:0]
		return
	}
	// Header items deepest-first (descending structural rank). Every item
	// present in a conditional tree is frequent by construction.
	for i := len(t.ranks) - 1; i >= 0; i-- {
		ctx.mineItem(t, t.ranks[i], depth)
	}
}

// rankSet is one stored itemset in rank space: structural ranks
// ascending (or any dense non-negative keys), with its support.
type rankSet struct {
	ranks   []int32
	support int
}

// mfiStore accumulates maximal itemsets and answers "is this candidate
// contained in a stored set?" — the one subsumption implementation, shared
// by the mining workers and the filterMaximal merge. Processing order
// (least-frequent header items first) guarantees no stored set is ever
// subsumed by a later one within a single worker.
//
// Queries are progressively focused (the LMFI idea of GenMax/FPmax*):
// lists[d] holds the stored sets containing the first d ranks of the
// current suffix, so a query at depth d scans only those and leaves
// lists[d+1] behind for the recursion it admits. Depth 0 seeds from the
// posting list of the queried rank.
type mfiStore struct {
	sets    []rankSet
	sigs    []uint64  // sigs[i] ORs sigBit over sets[i].ranks: rejects, never accepts
	posting [][]int32 // rank -> indices of the sets containing it
	suffix  []int32   // suffix[d]: the rank focused on at depth d
	lists   [][]int32 // lists[d], d >= 1: indices of the sets containing suffix[:d]
}

// newMFIStore returns an empty store over ranks [0, nRanks) — the
// frequent items of one minsup level, not the dictionary.
func newMFIStore(nRanks int) *mfiStore {
	return &mfiStore{posting: make([][]int32, nRanks)}
}

func sigBit(r int32) uint64 { return 1 << (uint32(r) & 63) }

// focus reports whether a stored set contains suffix[:depth] ∪ {r} ∪ tail
// (tail sorted ascending), and makes r the suffix rank at depth. On a
// miss lists[depth+1] is complete — every stored set containing
// suffix[:depth+1] — gathered in the same pass; on a hit it is cut short,
// which is fine because the caller then prunes instead of descending.
func (s *mfiStore) focus(depth int, r int32, tail []int32) bool {
	for len(s.lists) < depth+2 {
		s.lists = append(s.lists, nil)
		s.suffix = append(s.suffix, 0)
	}
	s.suffix[depth] = r
	list := s.posting[r]
	if depth > 0 {
		list = s.lists[depth]
	}
	rbit := sigBit(r)
	want := rbit
	for _, x := range tail {
		want |= sigBit(x)
	}
	sub := s.lists[depth+1][:0]
	hit := false
	for _, i := range list {
		sig := s.sigs[i]
		if sig&rbit == 0 {
			continue
		}
		set := s.sets[i].ranks
		if _, ok := slices.BinarySearch(set, r); !ok {
			continue
		}
		sub = append(sub, i)
		if sig&want == want && isSubset(tail, set) {
			hit = true
			break
		}
	}
	s.lists[depth+1] = sub
	return hit
}

// add stores low ∪ suffix[:depth], where low is ascending and below every
// suffix rank (suffix ranks descend with depth). The caller has
// established that no stored set contains it.
func (s *mfiStore) add(depth int, low []int32, support int) {
	set := make([]int32, 0, len(low)+depth)
	set = append(set, low...)
	for d := depth - 1; d >= 0; d-- {
		set = append(set, s.suffix[d])
	}
	s.put(set, support, depth)
}

// put stores set (ascending, retained) and appends it to the posting list
// of each of its ranks and to the focus list of every level up to depth —
// it contains each of those suffix prefixes, and an ancestor level's next
// query must see it.
func (s *mfiStore) put(set []int32, support, depth int) {
	i := int32(len(s.sets))
	var sig uint64
	for _, r := range set {
		sig |= sigBit(r)
		s.posting[r] = append(s.posting[r], i)
	}
	s.sets = append(s.sets, rankSet{ranks: set, support: support})
	s.sigs = append(s.sigs, sig)
	for d := 1; d <= depth; d++ {
		s.lists[d] = append(s.lists[d], i)
	}
}

// subsumes reports whether cand (ascending) is a subset of a stored set,
// with no suffix in play: an unfocused query seeded from the posting list
// of cand's least-covered rank.
func (s *mfiStore) subsumes(cand []int32) bool {
	if len(cand) == 0 {
		return len(s.sets) > 0
	}
	best := cand[0]
	for _, r := range cand[1:] {
		if len(s.posting[r]) < len(s.posting[best]) {
			best = r
		}
	}
	return s.focus(0, best, cand)
}

// filterMaximal returns the indices of the sets that are not a subset of
// another (one index per group of duplicates), longest first. Ranks must
// lie in [0, nRanks).
func filterMaximal(sets []rankSet, nRanks int) []int {
	// Longest first: a set can only be subsumed by a longer (or equal,
	// i.e. duplicate) one.
	byLen := make([]int, len(sets))
	for i := range byLen {
		byLen[i] = i
	}
	slices.SortFunc(byLen, func(a, b int) int { return len(sets[b].ranks) - len(sets[a].ranks) })
	store := newMFIStore(nRanks)
	kept := byLen[:0]
	for _, i := range byLen {
		if !store.subsumes(sets[i].ranks) {
			store.put(sets[i].ranks, sets[i].support, 0)
			kept = append(kept, i)
		}
	}
	return kept
}

// FilterMaximal removes every itemset that is a strict subset of another
// itemset in the input, and all but one of each group of duplicates.
// Input itemsets must have sorted Items; the ids are used as dense keys,
// so they must be non-negative like every item id of this package.
func FilterMaximal(sets []Itemset) []Itemset {
	keyed := make([]rankSet, len(sets))
	nKeys := 0
	for i, s := range sets {
		keys := make([]int32, len(s.Items))
		for j, it := range s.Items {
			keys[j] = int32(it)
			nKeys = max(nKeys, it+1)
		}
		keyed[i] = rankSet{ranks: keys, support: s.Support}
	}
	var maximal []Itemset
	for _, i := range filterMaximal(keyed, nKeys) {
		maximal = append(maximal, sets[i])
	}
	sortCanonical(maximal)
	return maximal
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset[T cmp.Ordered](a, b []T) bool {
	if len(a) > len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
