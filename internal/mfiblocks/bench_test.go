package mfiblocks

import (
	"math/rand"
	"testing"
)

func benchRng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func BenchmarkRun(b *testing.B) {
	for _, persons := range []int{250, 500, 1000} {
		b.Run(sizeName(persons), func(b *testing.B) {
			g := smallItaly(b, persons)
			cfg := NewConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, g.Collection); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnforceNG measures the sparse-neighborhood filter with its
// dense []int comparison budgets — the map it replaced dominated the
// allocation profile of the blocking hot path.
func BenchmarkEnforceNG(b *testing.B) {
	const n = 2000
	cfg := NewConfig()
	cfg.MinScore = 0.0
	rng := benchRng()
	blocks := make([]*Block, 600)
	for i := range blocks {
		members := make([]int, 2+rng.Intn(6))
		for j := range members {
			members[j] = rng.Intn(n)
		}
		blocks[i] = &Block{Members: members, Score: 0.1 + rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spent := make([]int, n)
		enforceNG(&cfg, blocks, spent)
	}
}

// BenchmarkClusterJaccard measures the counting block scorer alone, on
// the largest support set among the minsup-3 MFIs of a 1,200-person
// Italy corpus — the long-intersection case block materialization hits
// hardest.
func BenchmarkClusterJaccard(b *testing.B) {
	cfg := NewConfig()
	cfg.Workers = 1
	bb, err := NewBlockBench(cfg, smallItaly(b, 1200).Collection, 3)
	if err != nil {
		b.Fatal(err)
	}
	var members []int
	for _, m := range bb.mfis {
		if set := bb.index.SupportSet(m.Items); len(set) > len(members) {
			members = set
		}
	}
	var js jaccardScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = bb.sc.clusterJaccard(members, &js)
	}
}

// benchScore keeps the compiler from discarding the measured call.
var benchScore float64

func sizeName(persons int) string {
	switch persons {
	case 250:
		return "persons250"
	case 500:
		return "persons500"
	default:
		return "persons1000"
	}
}
