package fpgrowth

import (
	"slices"
	"testing"
)

// The flat-arena rewrite turned the support level's build and
// support-set probes from thousands of per-node/map allocations into a
// handful of slab allocations amortized across calls. These guards pin that property so a
// regression back to per-node allocation fails loudly. Bounds are
// generous (the steady-state numbers are far lower) to stay robust
// across Go versions.

func TestTreeBuildAllocs(t *testing.T) {
	txns := benchTxns(2000, 800, 14)
	m := newMiner(txns)
	allocs := testing.AllocsPerRun(20, func() {
		m.TreeStats(3, nil)
	})
	// Steady state is ~10 allocs: the rank arena's slabs and the row
	// index TreeStats sorts to count the root tree's nodes without
	// building it. The old pointer-node tree allocated one node per
	// insertion — tens of thousands here.
	if allocs > 64 {
		t.Fatalf("tree build allocates %.0f per run, want <= 64", allocs)
	}
}

func TestSupportSetAllocs(t *testing.T) {
	txns := benchTxns(5000, 600, 14)
	m := newMiner(txns)
	idx := m.BuildIndex()
	mfis := m.MineMaximal(4, nil)
	if len(mfis) == 0 {
		t.Fatal("no MFIs to probe")
	}
	var i int
	allocs := testing.AllocsPerRun(100, func() {
		idx.SupportSet(mfis[i%len(mfis)].Items)
		i++
	})
	// One allocation for the result slice, which the fold's first level
	// is written to and the rest shrink in place. The first posting-list
	// implementation allocated ~10 per probe.
	if allocs > 6 {
		t.Fatalf("SupportSet allocates %.2f per run, want <= 6", allocs)
	}
}

// TestWalkerSupportAllocs: once a Walker's stack levels and marks have
// grown, materializing supports allocates nothing — mark-and-probe
// included.
func TestWalkerSupportAllocs(t *testing.T) {
	txns := benchTxns(5000, 600, 14)
	m := newMiner(txns)
	idx := m.BuildIndex()
	var seqs [][]int32
	for _, s := range m.MineMaximal(4, nil) {
		seqs = append(seqs, idx.RankSeq(nil, s.Items))
	}
	slices.SortFunc(seqs, slices.Compare[[]int32])
	w := idx.NewWalker()
	walk := func() {
		for _, seq := range seqs {
			w.Support(seq)
		}
	}
	walk()
	if w.marks.stamp == nil {
		t.Fatal("the fixture never reaches mark-and-probe")
	}
	if allocs := testing.AllocsPerRun(5, walk); allocs != 0 {
		t.Fatalf("Walker.Support allocates %.2f per walk of %d itemsets, want 0", allocs, len(seqs))
	}
}
