package fpgrowth

import "testing"

// The flat-arena rewrite turned tree construction and support-set probes
// from thousands of per-node/map allocations into a handful of slab
// allocations amortized across calls. These guards pin that property so a
// regression back to per-node allocation fails loudly. Bounds are
// generous (the steady-state numbers are far lower) to stay robust
// across Go versions.

func TestTreeBuildAllocs(t *testing.T) {
	txns := benchTxns(2000, 800, 14)
	m := NewMiner(txns)
	m.TreeStats(3, nil) // warm the miner's reusable state
	allocs := testing.AllocsPerRun(20, func() {
		m.TreeStats(3, nil)
	})
	// Steady state is ~25 allocs (tree slabs + header tables). The old
	// pointer-node tree allocated one node per insertion — tens of
	// thousands here.
	if allocs > 64 {
		t.Fatalf("tree build allocates %.0f per run, want <= 64", allocs)
	}
}

func TestSupportSetAllocs(t *testing.T) {
	txns := benchTxns(5000, 600, 14)
	m := NewMiner(txns)
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
