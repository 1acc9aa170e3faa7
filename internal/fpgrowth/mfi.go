package fpgrowth

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// each mining its conditional subtrees into a worker-local MFI store. A
// stored set can only be non-maximal because of a longer set in another
// store (finishMaximal), so the stores are checked against each other and
// the survivors sorted: bit-identical output for every worker count.
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
	t0 := time.Now()
	// KindSetup: node and item counts describe the build, not the mined
	// workload.
	tsp := m.Trace.Child("tree_build", trace.WithKind(trace.KindSetup))
	tree, order := m.buildFlatTree(minsup, active, freq)
	tsp.Attr("nodes", int64(len(tree.item)-1)).Attr("items", int64(len(order))).End()
	m.Metrics.Timer(telemetry.FamilyFPGrowthTreeBuild).Observe(time.Since(t0))
	t1 := time.Now()
	msp := m.Trace.Child("mine", trace.WithKind(trace.KindOp)).Attr("minsup", int64(minsup))
	defer msp.End()
	return m.finishMaximal(msp, m.mineTops(msp, tree, order, minsup), order, t1)
}

// mergeChunk bounds the sets one merge task checks and translates.
const mergeChunk = 512

// finishMaximal is the merge tail of mineMaximal. Two facts make it exact
// without a global sweep: no set is subsumed by another set of its own
// store (deepest-first order, and a focus miss precedes every add), and an
// itemset has one top rank, hence one owning worker, so no set occurs in
// two stores. A set is therefore non-maximal exactly when a longer set of
// a different store contains it (the stores together hold every true MFI).
// Chunks of each store are checked against the other stores, which they
// only read, and translated to sorted item ids under the Workers budget; a
// lone store has nothing to be checked against. Survivors are gathered in
// store order and leave through the canonical sort: bit-identical MFIs
// for every worker count.
func (m *Miner) finishMaximal(msp *trace.Span, stores []*mfiStore, order []int, t1 time.Time) []Itemset {
	t2 := time.Now()
	type task struct{ store, lo int }
	var tasks []task
	for si, s := range stores {
		for lo := 0; lo < len(s.sets); lo += mergeChunk {
			tasks = append(tasks, task{si, lo})
		}
	}
	// KindSetup: how many stores there are to reconcile is fan-out
	// configuration, not workload.
	gsp := msp.Child("maximal_merge", trace.WithKind(trace.KindSetup)).Attr("stores", int64(len(stores)))
	parts := make([][]Itemset, len(tasks))
	var next atomic.Int64
	run := func() {
		for c := int(next.Add(1)) - 1; c < len(tasks); c = int(next.Add(1)) - 1 {
			own := stores[tasks[c].store]
			sets := own.sets[tasks[c].lo:min(tasks[c].lo+mergeChunk, len(own.sets))]
			part := make([]Itemset, 0, len(sets))
			for _, set := range sets {
				if slices.ContainsFunc(stores, func(s *mfiStore) bool { return s != own && s.subsumes(set.ranks) }) {
					continue
				}
				items := make([]int, len(set.ranks))
				for j, r := range set.ranks {
					items[j] = order[r]
				}
				sort.Ints(items)
				part = append(part, Itemset{Items: items, Support: set.support})
			}
			parts[c] = part
		}
	}
	var wg sync.WaitGroup
	for w := min(m.workers(), len(tasks)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	out := slices.Concat(parts...)
	gsp.Attr("survivors", int64(len(out))).End()
	m.Metrics.Timer(telemetry.FamilyFPGrowthMerge).Observe(time.Since(t2))
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

// mineTops runs the FPmax top-item loop over the root tree, fanning its
// header items out across the worker pool, and returns the worker-local
// MFI stores in worker order. finishMaximal reconciles them.
func (m *Miner) mineTops(parent *trace.Span, tree *flatTree, order []int, minsup int) []*mfiStore {
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
	// Deterministic round-robin assignment: worker w owns top[w],
	// top[w+W], ... — contiguous chunks would hand all the cheap
	// deep-rank items to one worker and the expensive shallow ones to
	// another. Each worker keeps the serial deepest-first order within
	// its share, preserving most of the store's pruning power.
	workers := max(min(m.workers(), len(top)), 1)
	m.Metrics.Gauge(telemetry.FamilyFPGrowthWorkers).Set(float64(workers))
	stores := make([]*mfiStore, workers)
	mine := func(w int) {
		ctx := newMineCtx(order, minsup)
		ctx.store = newMFIStore(len(order))
		for i := w; i < len(top); i += workers {
			ctx.mineItem(tree, top[i], 0)
		}
		stores[w] = ctx.store
		m.Metrics.Counter("fpgrowth_header_items_total").Add(ctx.visited)
		m.Metrics.Counter("fpgrowth_cond_trees_total").Add(ctx.trees)
	}
	if workers == 1 {
		mine(0)
		return stores
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := parent.Child("mine_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
			mine(w)
			wsp.Attr("sets", int64(len(stores[w].sets))).End()
		}(w)
	}
	wg.Wait()
	return stores
}

// mineItem runs header item r of tree t — the root tree at depth 0, a
// conditional tree below — under the suffix the store is focused on:
// count r's conditional items, split off their closure C (the items whose
// conditional support equals t.cnt[r], the support of suffix ∪ {r}) and,
// unless a stored set already contains suffix ∪ {r} ∪ every frequent one
// of them (head-union-tail pruning; with none this is the maximality test
// of suffix ∪ {r} itself), build the conditional tree of the rest and
// mine it under suffix ∪ {r} ∪ C. Most branches are pruned, so the tree
// is only built once the store has missed.
//
// Closure folding is exact. Let S = suffix ∪ {r}. Every transaction
// containing S contains each x ∈ C, since x's count over S's transactions
// is all of them; so for every X ⊇ S, X ∪ C has the support of X. A
// maximal X ⊇ S therefore contains C (else X ∪ C is a frequent strict
// superset), and the maximal sets ⊇ S are exactly the maximal sets ⊇ S ∪ C
// — which the conditional tree of the rest, whose items are all frequent
// under S ∪ C with the same counts, enumerates. C leaves the tree and
// joins the suffix at this depth, so its items are never header items.
//
// Nothing is stored after the recursion returns. A non-empty conditional
// tree means suffix ∪ {r} ∪ C ∪ {x} is frequent, and fpmax never returns
// without the store holding a strict superset of its suffix: a single
// path stores suffix ∪ path; otherwise the first item of the loop stores,
// is pruned by, or (by induction) recurses into a superset of
// suffix ∪ {item}. The bare suffix ∪ {r} ∪ C is therefore never maximal
// there.
func (ctx *mineCtx) mineItem(t *flatTree, r int32, depth int) {
	ctx.visited++
	// Ascending ranks: the sorted tail the store tests, and the order
	// fpmax walks backwards.
	tail := ctx.conditionalCounts(t, r)
	slices.Sort(tail)
	// Partition in place, both halves ascending. A closure item's count
	// is zeroed so that buildConditional drops it.
	closure, rest := ctx.closure[:0], tail[:0]
	for _, x := range tail {
		if ctx.condCnt[x] == t.cnt[r] {
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
	if len(closure) > 0 {
		ctx.folds[min(depth, len(ctx.folds)-1)]++
	}
	cond := ctx.getTree()
	ctx.buildConditional(t, r, cond)
	// Insertion listed the same ranks in first-touch order.
	cond.ranks = append(cond.ranks[:0], rest...)
	ctx.fpmax(cond, depth+1, t.cnt[r])
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
// contained in a stored set?" — the one subsumption implementation: focus
// for the worker that fills the store, the read-only subsumes for the
// cross-store merge (and the filterMaximal oracle). Processing order
// (least-frequent header items first) plus the focus miss before every add
// guarantee no stored set is subsumed by another set of the same store.
//
// Queries are progressively focused (the LMFI idea of GenMax/FPmax*):
// the suffix is a stack of rank groups, one per depth — the header rank
// and its folded closure — and lists[d] holds the stored sets containing
// every group below depth d, so a query at depth d scans only those and
// leaves lists[d+1] behind for the recursion it admits. Depth 0 seeds
// from the posting list of the queried rank.
type mfiStore struct {
	sets    []rankSet
	sigs    []uint64  // sigs[i] ORs sigBit over sets[i].ranks: rejects, never accepts
	posting [][]int32 // rank -> indices of the sets containing it
	suffix  []int32   // the focused groups, depth 0 first, each ascending
	ends    []int     // ends[d]: end of depth d's group in suffix
	lists   [][]int32 // lists[d], d >= 1: indices of the sets containing suffix[:ends[d-1]]
}

// newMFIStore returns an empty store over ranks [0, nRanks) — the
// frequent items of one minsup level, not the dictionary.
func newMFIStore(nRanks int) *mfiStore {
	return &mfiStore{posting: make([][]int32, nRanks)}
}

func sigBit(r int32) uint64 { return 1 << (uint32(r) & 63) }

// groupsEnd returns the end in suffix of the groups below depth.
func (s *mfiStore) groupsEnd(depth int) int {
	if depth == 0 {
		return 0
	}
	return s.ends[depth-1]
}

// focus reports whether a stored set contains the suffix groups below
// depth ∪ {r} ∪ closure ∪ rest, and makes closure ∪ {r} the suffix group
// at depth. closure and rest are ascending, disjoint and below r. On a
// miss lists[depth+1] is complete — every stored set containing the
// suffix through depth — gathered in the same pass; on a hit it is cut
// short, which is fine because the caller then prunes instead of
// descending.
func (s *mfiStore) focus(depth int, r int32, closure, rest []int32) bool {
	for len(s.lists) < depth+2 {
		s.lists = append(s.lists, nil)
		s.ends = append(s.ends, 0)
	}
	start := s.groupsEnd(depth)
	s.suffix = append(append(s.suffix[:start], closure...), r)
	s.ends[depth] = len(s.suffix)
	group := s.suffix[start:]
	list := s.posting[r]
	if depth > 0 {
		list = s.lists[depth]
	}
	var gsig uint64
	for _, x := range group {
		gsig |= sigBit(x)
	}
	want := gsig
	for _, x := range rest {
		want |= sigBit(x)
	}
	sub := s.lists[depth+1][:0]
	hit := false
	for _, i := range list {
		sig := s.sigs[i]
		if sig&gsig != gsig {
			continue
		}
		set := s.sets[i].ranks
		if !holdsGroup(set, group) {
			continue
		}
		sub = append(sub, i)
		if sig&want == want && isSubset(rest, set) {
			hit = true
			break
		}
	}
	s.lists[depth+1] = sub
	return hit
}

// holdsGroup reports whether sorted set holds every rank of group, by
// binary search: a group is a rank and its closure, rarely more than a
// few ranks, against a set of ten or more.
func holdsGroup(set, group []int32) bool {
	for _, x := range group {
		if _, ok := slices.BinarySearch(set, x); !ok {
			return false
		}
	}
	return true
}

// add stores low ∪ the suffix groups below depth, where low is disjoint
// from them. Closure ranks interleave with low, so the set is sorted. The
// caller has established that no stored set contains it.
func (s *mfiStore) add(depth int, low []int32, support int) {
	n := s.groupsEnd(depth)
	set := make([]int32, 0, len(low)+n)
	set = append(append(set, low...), s.suffix[:n]...)
	slices.Sort(set)
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
// with no suffix in play: a scan of the posting list of cand's
// least-covered rank. It writes nothing — not even the focus lists — so
// the merge may query a finished store from many goroutines at once.
func (s *mfiStore) subsumes(cand []int32) bool {
	if len(cand) == 0 {
		return len(s.sets) > 0
	}
	best := cand[0]
	var want uint64
	for _, r := range cand {
		want |= sigBit(r)
		if len(s.posting[r]) < len(s.posting[best]) {
			best = r
		}
	}
	for _, i := range s.posting[best] {
		if s.sigs[i]&want == want && isSubset(cand, s.sets[i].ranks) {
			return true
		}
	}
	return false
}

// filterMaximal returns the indices of the sets that are not a subset of
// another (one index per group of duplicates), longest first. Ranks must
// lie in [0, nRanks). It assumes nothing about where the sets came from:
// the sweep behind the exported FilterMaximal, and the oracle the tests
// hold finishMaximal's cross-store merge against.
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
