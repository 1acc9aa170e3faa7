package fpgrowth

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func benchTxns(n, universe, maxLen int) [][]int {
	rng := rand.New(rand.NewSource(13))
	txns := make([][]int, n)
	for i := range txns {
		seen := map[int]bool{}
		for k := 0; k < 2+rng.Intn(maxLen); k++ {
			// Zipf-ish skew: low ids are common.
			id := int(float64(universe) * rng.Float64() * rng.Float64())
			seen[id] = true
		}
		for it := range seen {
			txns[i] = append(txns[i], it)
		}
		sort.Ints(txns[i])
	}
	return txns
}

// denseTxns is the multiple-value-submitter shape of ItalySet's Pages of
// Testimony that benchTxns (uniform-sparse) lacks: each transaction is one
// of nLists shared item lists of 8-12 items from a small universe (lists
// overlap, as families share names and places), with up to two items
// dropped and, one time in three, a stray item added. MFIs are long, many
// of them share most of their items, and recursion runs as deep as a list.
func denseTxns(seed int64, n, nLists, universe int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]int, nLists)
	for i := range lists {
		lists[i] = rng.Perm(universe)[:8+rng.Intn(5)]
	}
	txns := make([][]int, n)
	for i := range txns {
		list := lists[rng.Intn(nLists)]
		seen := map[int]bool{}
		for _, it := range list {
			seen[it] = true
		}
		for k := rng.Intn(3); k > 0; k-- {
			delete(seen, list[rng.Intn(len(list))])
		}
		if rng.Intn(3) == 0 {
			seen[rng.Intn(universe)] = true
		}
		for it := range seen {
			txns[i] = append(txns[i], it)
		}
		sort.Ints(txns[i])
	}
	return txns
}

func BenchmarkTreeBuild(b *testing.B) {
	txns := benchTxns(2000, 800, 14)
	m := newMiner(txns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TreeStats(3, nil)
	}
}

func BenchmarkMineMaximal(b *testing.B) {
	txns := benchTxns(2000, 800, 14)
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			m := newMiner(txns)
			m.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MineMaximal(3, nil)
			}
		})
	}
	// The shape whose cost is the MFI store, not tree building.
	b.Run("dense", func(b *testing.B) {
		m := newMiner(denseTxns(29, 600, 100, 48))
		m.Workers = 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MineMaximal(2, nil)
		}
	})
}

// BenchmarkMaximalMerge times finishMaximal alone — cross-store check,
// translation, canonical sort — over the frozen stores of a four-worker
// mine of the dense fixture; the merge only reads them, so every iteration
// sees the same input.
func BenchmarkMaximalMerge(b *testing.B) {
	m := newMiner(denseTxns(29, 600, 100, 48))
	m.Workers = 4
	stores, order := minedStores(m, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.finishMaximal(nil, stores, order)
	}
}

func BenchmarkMineAll(b *testing.B) {
	txns := benchTxns(800, 500, 10)
	m := newMiner(txns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineAll(b, m, 3, nil)
	}
}

func BenchmarkSupportSet(b *testing.B) {
	txns := benchTxns(5000, 600, 14)
	m := newMiner(txns)
	idx := m.BuildIndex()
	mfis := m.MineMaximal(4, nil)
	if len(mfis) == 0 {
		b.Fatal("no MFIs to probe")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SupportSet(mfis[i%len(mfis)].Items)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	txns := benchTxns(5000, 600, 14)
	m := newMiner(txns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BuildIndex()
	}
}
