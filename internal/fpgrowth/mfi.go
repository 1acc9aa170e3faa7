package fpgrowth

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
// the survivors sorted canonically (items lexicographic, a prefix before
// its extensions): bit-identical output for every worker count.
func (m *Miner) MineMaximal(minsup int, active []int) []Itemset {
	out, _ := m.mineMaximal(minsup, active, nil) // counted here, the counts cannot disagree
	sortCanonical(out)
	return out
}

// MineMaximalFreq is MineMaximal with caller-supplied item frequencies and
// without the canonical sort: freq[id] must be the occurrence count of
// item id over the active transactions, and the MFIs come back in store
// order — the same set, with the same supports, for every worker count,
// but an order that depends on it. Its caller, mfiblocks.RunCorpus,
// maintains the frequencies decrementally as records become covered
// (sparing the counting pass a plain MineMaximal performs per call) and
// reorders the MFIs rarest item first anyway, so the sort would be
// thrown away. Counts that disagree with the active transactions are an
// error, found before any mining starts.
func (m *Miner) MineMaximalFreq(minsup int, active []int, freq []int) ([]Itemset, error) {
	return m.mineMaximal(minsup, active, freq)
}

func (m *Miner) mineMaximal(minsup int, active []int, freq []int) ([]Itemset, error) {
	if minsup < 1 {
		minsup = 1
	}
	// The span keeps the name tree_build, which the repo benchmark reads,
	// and times the rank arena; nodes counts its rank occurrences.
	// KindSetup: node and item counts describe the build, not the mined
	// workload.
	tsp := m.Trace.Child("tree_build", trace.WithKind(trace.KindSetup))
	a, err := m.rankArena(minsup, active, freq)
	if err != nil {
		tsp.End()
		return nil, err
	}
	tsp.Attr("nodes", int64(len(a.ranks))).Attr("items", int64(len(a.order))).End()
	msp := m.Trace.Child("mine", trace.WithKind(trace.KindOp)).Attr("minsup", int64(minsup))
	defer msp.End()
	return m.finishMaximal(msp, m.mineTops(msp, a, minsup), a.order), nil
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
// lone store has nothing to be checked against. Survivors are returned in
// store order: the same MFIs for every worker count, in an order that
// depends on it (MineMaximal sorts them canonically; MineMaximalFreq
// does not). A chunk's survivors share one item-id arena, each Items
// capped at its own length.
//
// The merge span carries the mining call's header-item, projection and
// focus-scan totals — the projections under the attr name cond_trees:
// 1 − cond_trees ÷ header_items is the share of header items
// head-union-tail pruning cut, and focus_scanned counts the focus-list
// entries the head-union-tail tests visited.
func (m *Miner) finishMaximal(msp *trace.Span, stores []*mfiStore, order []int) []Itemset {
	type task struct{ store, lo int }
	var tasks []task
	var visited, trees, scanned int64
	for si, s := range stores {
		for lo := 0; lo < s.len(); lo += mergeChunk {
			tasks = append(tasks, task{si, lo})
		}
		visited += s.visited
		trees += s.trees
		scanned += s.scanned
	}
	// KindSetup: how many stores there are to reconcile, and so how much
	// each worker's store could prune, is fan-out configuration, not
	// workload.
	gsp := msp.Child("maximal_merge", trace.WithKind(trace.KindSetup)).
		Attr("stores", int64(len(stores))).
		Attr("header_items", visited).
		Attr("cond_trees", trees).
		Attr("focus_scanned", scanned)
	parts := make([][]Itemset, len(tasks))
	var next atomic.Int64
	run := func() {
		var kept []int32
		for c := int(next.Add(1)) - 1; c < len(tasks); c = int(next.Add(1)) - 1 {
			own := stores[tasks[c].store]
			lo, hi := tasks[c].lo, min(tasks[c].lo+mergeChunk, own.len())
			kept = kept[:0]
			size := 0
			for i := int32(lo); i < int32(hi); i++ {
				set := own.set(i)
				if slices.ContainsFunc(stores, func(s *mfiStore) bool { return s != own && s.subsumes(set) }) {
					continue
				}
				kept = append(kept, i)
				size += len(set)
			}
			arena := make([]int, 0, size)
			part := make([]Itemset, len(kept))
			for j, i := range kept {
				start := len(arena)
				for _, r := range own.set(i) {
					arena = append(arena, order[r])
				}
				items := arena[start:len(arena):len(arena)]
				sort.Ints(items)
				part[j] = Itemset{Items: items, Support: own.supports[i]}
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
	msp.Attr("mfis", int64(len(out)))
	return out
}

// sortCanonical orders itemsets lexicographically by Items, a prefix
// before its extensions — the order every MFI list leaves this package in.
func sortCanonical(sets []Itemset) {
	slices.SortFunc(sets, func(a, b Itemset) int { return slices.Compare(a.Items, b.Items) })
}

// mineTops runs the FPmax top-item loop over the rank arena, fanning its
// header items out across the worker pool, and returns the worker-local
// MFI stores in worker order. finishMaximal reconciles them.
func (m *Miner) mineTops(parent *trace.Span, a *rankArena, minsup int) []*mfiStore {
	// Top-level header items deepest-first (descending structural rank):
	// an item's projection only contains items processed after it in the
	// serial order, so no stored set is ever subsumed by a later one
	// within a worker. The arena ranks exactly the frequent items, so
	// every rank is a top-level item: the i-th is rank R-1-i.
	order := a.order
	// Deterministic round-robin assignment: worker w owns the items w,
	// w+W, ... of that order — contiguous chunks would hand all the cheap
	// deep-rank items to one worker and the expensive shallow ones to
	// another. Each worker keeps the serial deepest-first order within
	// its share, preserving most of the store's pruning power.
	workers := max(min(m.workers(), len(order)), 1)
	stores := make([]*mfiStore, workers)
	var wg sync.WaitGroup
	mine := func(w int) {
		defer wg.Done()
		wsp := parent.Child("mine_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
		ctx := newMineCtx(order, minsup)
		ctx.store = newMFIStore(len(order))
		for i := w; i < len(order); i += workers {
			ctx.mineItem(a, int32(len(order)-1-i))
		}
		ctx.store.visited, ctx.store.trees = ctx.visited, ctx.trees
		stores[w] = ctx.store
		wsp.Attr("sets", int64(ctx.store.len())).End()
	}
	wg.Add(workers)
	for w := range workers {
		go mine(w)
	}
	wg.Wait()
	return stores
}

// missed counts a focus miss at depth, whose closure was folded into the
// suffix: one conditional projection taken.
func (ctx *mineCtx) missed(depth int, closure []int32) {
	ctx.trees++
	if len(closure) > 0 {
		ctx.folds[min(depth, len(ctx.folds)-1)]++
	}
}

// mineItem runs top-level header item r of the rank arena, the root of
// the suffix the store is focused on: count r's conditional items off its
// windows, split off their closure C (the items whose conditional support
// equals a.support(r), that of {r}) and, unless a stored set already
// contains {r} ∪ every frequent one of them (head-union-tail pruning;
// with none this is the maximality test of {r} itself), project the rest
// as vertical bitmaps (bitmap.go) and mine them under {r} ∪ C. Most
// branches are pruned, so the projection is only built once the store
// has missed.
//
// Closure folding is exact, here and at every depth of the bitmap
// recursion. Let S = suffix ∪ {r}. Every transaction containing S
// contains each x ∈ C, since x's count over S's transactions is all of
// them; so for every X ⊇ S, X ∪ C has the support of X. A maximal X ⊇ S
// therefore contains C (else X ∪ C is a frequent strict superset), and
// the maximal sets ⊇ S are exactly the maximal sets ⊇ S ∪ C — which the
// projection of the rest, whose items are all frequent under S ∪ C with
// the same counts, enumerates. C leaves the projection and joins the
// suffix at this depth, so its items are never header items below it.
//
// Nothing is stored after the recursion returns. A non-empty rest means
// S ∪ C ∪ {x} is frequent, and fpmaxBits never returns without the store
// holding a strict superset of its suffix: a nested chain stores
// suffix ∪ chain; otherwise the first rank of the loop stores, is pruned
// by, or (by induction) recurses into a superset of suffix ∪ {rank}. The
// bare S ∪ C is therefore never maximal there.
func (ctx *mineCtx) mineItem(a *rankArena, r int32) {
	ctx.visited++
	support := a.support(r)
	// Ascending ranks: the sorted tail the store tests, and the rows the
	// projection lays out.
	tail := ctx.conditionalCounts(a, r)
	slices.Sort(tail)
	// Partition in place, both halves ascending.
	closure, rest := ctx.closure[:0], tail[:0]
	for _, x := range tail {
		if ctx.condCnt[x] == support {
			closure = append(closure, x)
		} else {
			rest = append(rest, x)
		}
	}
	ctx.closure = closure
	ctx.clearCounts()
	if ctx.store.focus(0, r, closure, rest) {
		return
	}
	ctx.missed(0, closure)
	ctx.project(a, r, rest)
	ctx.fpmaxBits(1, support)
	ctx.bits = ctx.bits[:0]
}

// mfiStore accumulates maximal itemsets and answers "is this candidate
// contained in a stored set?" — the one subsumption implementation: focus
// for the worker that fills the store, the read-only subsumes for the
// cross-store merge (and the filterMaximal oracle). Processing order
// (least-frequent header items first) plus the focus miss before every add
// guarantee no stored set is subsumed by another set of the same store.
//
// The sets are columns with no pointer in them: set i's ranks, ascending
// (structural ranks, or any dense non-negative keys), are
// ranks[offs[i]:offs[i+1]], its support supports[i] and its signature
// sigs[i].
//
// Queries are progressively focused (the LMFI idea of GenMax/FPmax*):
// the suffix is a stack of rank groups, one per depth — the header rank
// and its folded closure — and lists[d] holds the stored sets containing
// every group below depth d, so a query at depth d scans only those and
// leaves lists[d+1] behind for the recursion it admits. Depth 0 seeds
// from the posting list of the queried rank. Depth 1, where most queries
// land, scans only buckets[r]: lists[1] filtered to the sets holding r,
// in lists[1] order, for every rank r below the depth-0 rank (no depth-1
// query asks for another). A depth-0 focus rewrites lists[1] and so
// invalidates the buckets; the next depth-1 focus rebuilds them, and a
// set stored at depth ≥ 1 joins them while they are valid (commit).
type mfiStore struct {
	ranks    []int32   // the stored sets' ranks, back to back
	offs     []int     // set i spans ranks[offs[i]:offs[i+1]]; len = sets+1
	supports []int     // supports[i]: set i's support
	sigs     []uint64  // sigs[i] ORs sigBit over set i: rejects, never accepts
	posting  [][]int32 // rank -> indices of the sets containing it
	suffix   []int32   // the focused groups, depth 0 first, each ascending
	ends     []int     // ends[d]: end of depth d's group in suffix
	lists    [][]int32 // lists[d], d >= 1: indices of the sets containing suffix[:ends[d-1]]

	buckets  [][]int32 // rank -> lists[1] split by rank, while bucketed
	filled   []int32   // the ranks whose bucket is non-empty
	bucketed bool      // buckets mirror lists[1]

	visited, trees, scanned int64 // header items mined, conditional projections taken and focus-list entries visited filling it
}

// newMFIStore returns an empty store over ranks [0, nRanks) — the
// frequent items of one minsup level, not the dictionary.
func newMFIStore(nRanks int) *mfiStore {
	return &mfiStore{offs: []int{0}, posting: make([][]int32, nRanks), buckets: make([][]int32, nRanks)}
}

func sigBit(r int32) uint64 { return 1 << (uint32(r) & 63) }

// len returns the number of stored sets.
func (s *mfiStore) len() int { return len(s.offs) - 1 }

// set returns stored set i's ranks, a view into the store.
func (s *mfiStore) set(i int32) []int32 { return s.ranks[s.offs[i]:s.offs[i+1]] }

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
	// The sets of posting[r] and buckets[r] hold r, so at depths 0 and 1
	// only the closure is left to look up.
	var list []int32
	check := group[:len(group)-1]
	switch depth {
	case 0:
		list = s.posting[r]
		s.bucketed = false // lists[1] is rewritten below
	case 1:
		if !s.bucketed {
			s.fillBuckets()
		}
		list = s.buckets[r]
	default:
		list = s.lists[depth]
		check = group
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
	n := 0
	for _, i := range list {
		n++
		sig := s.sigs[i]
		if sig&gsig != gsig {
			continue
		}
		set := s.set(i)
		if !holdsGroup(set, check) {
			continue
		}
		sub = append(sub, i)
		if sig&want == want && isSubset(rest, set) {
			hit = true
			break
		}
	}
	s.scanned += int64(n)
	s.lists[depth+1] = sub
	return hit
}

// fillBuckets splits lists[1] into the buckets of the ranks below the
// depth-0 rank, emptying the buckets of the previous depth-0 focus first.
func (s *mfiStore) fillBuckets() {
	for _, x := range s.filled {
		s.buckets[x] = s.buckets[x][:0]
	}
	s.filled = s.filled[:0]
	s.bucketed = true
	for _, i := range s.lists[1] {
		s.bucket(i)
	}
}

// bucket appends set i to the bucket of each of its ranks below the
// depth-0 rank — the last, highest rank of the depth-0 group, above
// every rank a depth-1 query focuses. Sets are ascending, so those ranks
// are a prefix.
func (s *mfiStore) bucket(i int32) {
	top := s.suffix[s.ends[0]-1]
	for _, x := range s.set(i) {
		if x >= top {
			return
		}
		if len(s.buckets[x]) == 0 {
			s.filled = append(s.filled, x)
		}
		s.buckets[x] = append(s.buckets[x], i)
	}
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
// from them. Closure ranks interleave with low, so the set is sorted in
// place at the end of the rank column. The caller has established that no
// stored set contains it.
func (s *mfiStore) add(depth int, low []int32, support int) {
	start := len(s.ranks)
	s.ranks = append(append(s.ranks, low...), s.suffix[:s.groupsEnd(depth)]...)
	slices.Sort(s.ranks[start:])
	s.commit(support, depth)
}

// put stores a copy of set (ascending).
func (s *mfiStore) put(set []int32, support, depth int) {
	s.ranks = append(s.ranks, set...)
	s.commit(support, depth)
}

// commit closes the set whose ranks were appended since the last one and
// appends it to the posting list of each of its ranks and to the focus
// list of every level up to depth — it contains each of those suffix
// prefixes, and an ancestor level's next query must see it — and, when
// it joins lists[1] while the buckets mirror it, to its buckets.
func (s *mfiStore) commit(support, depth int) {
	i := int32(s.len())
	s.offs = append(s.offs, len(s.ranks))
	var sig uint64
	for _, r := range s.set(i) {
		sig |= sigBit(r)
		s.posting[r] = append(s.posting[r], i)
	}
	s.supports = append(s.supports, support)
	s.sigs = append(s.sigs, sig)
	for d := 1; d <= depth; d++ {
		s.lists[d] = append(s.lists[d], i)
	}
	if depth >= 1 && s.bucketed {
		s.bucket(i)
	}
}

// subsumes reports whether cand (ascending) is a subset of a stored set,
// with no suffix in play: a scan of the posting list of cand's
// least-covered rank. It writes nothing — not even the focus lists — so
// the merge may query a finished store from many goroutines at once.
func (s *mfiStore) subsumes(cand []int32) bool {
	if len(cand) == 0 {
		return s.len() > 0
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
		if s.sigs[i]&want == want && isSubset(cand, s.set(i)) {
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
func filterMaximal(sets [][]int32, nRanks int) []int {
	// Longest first: a set can only be subsumed by a longer (or equal,
	// i.e. duplicate) one.
	byLen := make([]int, len(sets))
	for i := range byLen {
		byLen[i] = i
	}
	slices.SortFunc(byLen, func(a, b int) int { return len(sets[b]) - len(sets[a]) })
	store := newMFIStore(nRanks)
	kept := byLen[:0]
	for _, i := range byLen {
		if !store.subsumes(sets[i]) {
			store.put(sets[i], 0, 0)
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
	keyed := make([][]int32, len(sets))
	nKeys := 0
	for i, s := range sets {
		keys := make([]int32, len(s.Items))
		for j, it := range s.Items {
			keys[j] = int32(it)
			nKeys = max(nKeys, it+1)
		}
		keyed[i] = keys
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
