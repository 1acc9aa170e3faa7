package features_test

import (
	"math/bits"
	"os"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/mfiblocks"
)

// sink keeps the benchmarked scores live.
var sink float64

// BenchmarkScoreLazyVsEager scores the same candidate pairs — the blocking
// candidates of the 300-person Italy preset — with the same model — the
// one adtree keeps as a fixture, trained over the canonical features — two
// ways: pulling features through a PairEval as the tree walk asks for
// them, and filling all 48 with ExtractProfiledInto before Score.
// features/pair is what each computed.
func BenchmarkScoreLazyVsEager(b *testing.B) {
	f, err := os.Open("../adtree/testdata/model.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	model, err := adtree.Load(f)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dataset.ItalyConfig()
	cfg.Persons = 300
	gen, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := mfiblocks.Run(mfiblocks.NewConfig(), gen.Collection)
	if err != nil || len(blk.Pairs) == 0 {
		b.Fatalf("blocking: %d candidates, %v", len(blk.Pairs), err)
	}
	ex := features.NewExtractor(gen.Gaz)
	profs := features.NewProfileCache(ex).Build(gen.Collection, 1)
	pairs := make([][2]*features.Profile, len(blk.Pairs))
	for i, p := range blk.Pairs {
		pairs[i] = [2]*features.Profile{profs[gen.Collection.Index(p.A)], profs[gen.Collection.Index(p.B)]}
	}

	b.Run("lazy", func(b *testing.B) {
		var ev features.PairEval
		evaluated := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ev.Reset(ex, p[0], p[1])
			sink += model.ScorePair(&ev)
			evaluated += bits.OnesCount64(ev.Evaluated())
		}
		b.ReportMetric(float64(evaluated)/float64(b.N), "features/pair")
	})
	b.Run("eager", func(b *testing.B) {
		vec := make(features.Vector, features.NumFeatures)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ex.ExtractProfiledInto(vec, p[0], p[1])
			sink += model.Score(vec)
		}
		b.ReportMetric(float64(features.NumFeatures), "features/pair")
	})
}
