package fpgrowth

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Shard-local maximal mining. The global structural-rank order
// (descending frequency — a whole-corpus property every shard agrees on)
// is cut into Shards contiguous rank ranges, balanced by item occurrence
// mass. Shard s owns ranks [lo_s, hi_s) and mines only those ranks as
// top-level FPmax suffixes, into its own shard-local MFI store.
//
// All shards mine the one shared projection tree. A per-shard tree —
// active transactions projected to ranks below hi_s — is tempting for
// memory, but prefix closure defeats it: because every owned rank drags
// in its whole prefix of more-frequent ranks, the last shard's tree is
// within a few percent of the monolithic tree (measured at 100K records:
// 603K of ~650K nodes), so peak memory is not reduced while build cost
// and allocation churn are multiplied by the shard count. The shared
// tree IS every shard's projection at once: conditional mining for a
// top-level rank r only ever descends into ranks below r, and the head
// chain of r aggregates the same (prefix, count) multiset whether or not
// transactions without owned ranks were inserted around it. Each shard
// therefore mines exactly what its private tree would have yielded,
// from one build pass instead of Shards.
//
// Why the merge is exact: every frequent itemset X has a unique maximal
// structural rank r(X), and conditional trees only ever contain ranks
// below their head item, so X is minable exactly once — in the shard
// that owns r(X), with its exact global (active-set) support. An itemset
// maximal within its shard may still be subsumed by a superset mined in
// another shard — its store never saw the superset — and that is the only
// way it can be non-maximal, so finishMaximal checks every store's sets
// against the other stores (worker-local stores of one shard included).
// Both paths reduce to the true MFI set with exact supports under the
// same canonical sort: bit-identical.
func (m *Miner) mineMaximalSharded(minsup int, active []int, freq []int) []Itemset {
	t0 := time.Now()
	counts, order, rankOf, totalOcc := m.frequentOrder(minsup, active, freq)
	tsp := m.Trace.Child("tree_build", trace.WithKind(trace.KindSetup))
	tree := m.projectTree(active, rankOf, len(order), totalOcc)
	tsp.Attr("nodes", int64(len(tree.item)-1)).Attr("items", int64(len(order))).End()
	m.Metrics.Timer(telemetry.FamilyFPGrowthTreeBuild).Observe(time.Since(t0))
	t1 := time.Now()
	msp := m.Trace.Child("mine", trace.WithKind(trace.KindOp)).Attr("minsup", int64(minsup))
	defer msp.End()

	bounds := shardBounds(counts, order, totalOcc, m.Shards)
	var stores []*mfiStore
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			continue
		}
		ssp := msp.Child("mine_shard", trace.WithKind(trace.KindShard)).
			Attr("shard", int64(s)).
			Attr("items", int64(hi-lo))
		// Owned ranks deepest-first — the same serial order the monolithic
		// top loop uses within this range, preserving the store's
		// no-late-subsumption pruning power shard-locally.
		top := make([]int32, 0, hi-lo)
		for r := hi - 1; r >= lo; r-- {
			if tree.cnt[r] >= minsup {
				top = append(top, int32(r))
			}
		}
		shardStores := m.mineTops(ssp, tree, order, top, minsup)
		sets := 0
		for _, st := range shardStores {
			sets += len(st.sets)
		}
		stores = append(stores, shardStores...)
		ssp.Attr("sets", int64(sets)).End()
	}
	m.Metrics.Gauge("fpgrowth_mine_shards").Set(float64(m.Shards))

	out := m.finishMaximal(msp, stores, order, t1)
	if m.SelfVerify {
		m.verifySupports(out, active)
	}
	return out
}

// shardBounds cuts the rank order into at most shards contiguous ranges
// balanced by occurrence mass: boundary s is the first rank whose prefix
// mass reaches s/shards of the total. Boundaries are monotone; ranges
// may be empty when shards exceeds the item count.
func shardBounds(counts, order []int, totalOcc, shards int) []int {
	r := 0
	prefix := 0
	bounds := make([]int, 0, shards+1)
	for s := 0; s < shards; s++ {
		target := totalOcc * s / shards
		for r < len(order) && prefix < target {
			prefix += counts[order[r]]
			r++
		}
		bounds = append(bounds, r)
	}
	bounds = append(bounds, len(order))
	return bounds
}

// verifySupports recounts each merged itemset's support over the active
// transactions against the inverted index — the lazy verification knob:
// only the merged survivors are recounted, never the shard-local
// candidate multiset. A mismatch means the shard merge broke the
// exact-support invariant, which is a programming error, so it panics.
func (m *Miner) verifySupports(sets []Itemset, active []int) {
	if m.vIndex == nil {
		m.vIndex = m.BuildIndex()
	}
	mask := m.vIndex.ActiveMask(active)
	for _, s := range sets {
		if got := m.vIndex.SupportCount(s.Items, mask); got != s.Support {
			panic(fmt.Sprintf("fpgrowth: shard merge support mismatch for %v: mined %d, index recounts %d",
				s.Items, s.Support, got))
		}
	}
}
