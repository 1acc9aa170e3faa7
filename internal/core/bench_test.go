package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// benchScoring prepares the scoring stage's inputs once: a generated
// collection, its preprocessed form, the blocking result, and a trained
// model — so the benchmark isolates pair scoring from the rest of the
// pipeline.
type benchScoring struct {
	opts Options
	work *record.Collection
	blk  *mfiblocks.Result
}

func newBenchScoring(b *testing.B, persons int) *benchScoring {
	b.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = persons
	gen, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := PreprocessWith(gen.Collection, gen.Gaz)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := mfiblocks.Run(mfiblocks.NewConfig(), pre)
	if err != nil {
		b.Fatal(err)
	}
	tagger := &dataset.Tagger{Gold: gen.Gold, Coll: gen.Collection, Rng: rand.New(rand.NewSource(99))}
	tags := tagger.TagPairs(blk.Pairs)
	model, err := TrainModel(adtree.NewTrainConfig(), tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Geo: gen.Gaz, Model: model, Classify: true, SameSrc: true}
	return &benchScoring{opts: opts, work: pre, blk: blk}
}

// BenchmarkScorePairs measures the scoring stage — profile build, SameSrc
// filter, feature extraction, ADTree scoring, classification — inline
// (workers=1) and with two workers claiming chunks off the candidate
// cursor, the sandbox's and the repository benchmark's worker count.
func BenchmarkScorePairs(b *testing.B) {
	bs := newBenchScoring(b, 600)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := bs.opts
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache := features.NewProfileCache(features.NewExtractor(opts.Geo))
				pos, scores, _ := scoringColumns(bs.work, bs.blk, bs.blk.EachPair)
				if st := scoreCandidates(&opts, bs.work, pos, scores, cache, workers, nil); len(st.matches) == 0 {
					b.Fatal("no matches scored")
				}
			}
		})
	}
}

// BenchmarkRunDefaultWorkers measures end-to-end Run (blocking included)
// at the default worker count — the common call site.
func BenchmarkRunDefaultWorkers(b *testing.B) {
	bs := newBenchScoring(b, 400)
	coll := bs.work
	opts := bs.opts
	opts.Blocking = mfiblocks.NewConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(opts, coll); err != nil {
			b.Fatal(err)
		}
	}
}

// trainingTags resolves the Italy split generated with the preset seed
// plus seedOffset, without a model, and tags its candidates as the
// simulated experts would: the set the repository benchmark trains its
// model on (seed +1000).
func trainingTags(tb testing.TB, persons int, seedOffset int64) (*dataset.Generated, *dataset.TagSet) {
	tb.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Seed += seedOffset
	cfg.Persons = persons
	g, err := dataset.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	opts := NewOptions(g.Gaz)
	opts.Gazetteer = g.Gaz
	opts.Classify = false
	res, err := Run(opts, g.Collection)
	if err != nil {
		tb.Fatal(err)
	}
	tagger := &dataset.Tagger{Gold: g.Gold, Coll: g.Collection, Rng: rand.New(rand.NewSource(cfg.Seed))}
	return g, tagger.TagPairs(res.Blocking.Pairs)
}

// BenchmarkTrainModel trains the deployed model as the repository
// benchmark's set-up does: TrainModel over the tags of the 1,200-person
// Italy split (seed +1000, Maybe tags left out). Feature extraction is
// part of each op, as it is of TrainModel.
func BenchmarkTrainModel(b *testing.B) {
	g, tags := trainingTags(b, 1200, 1000)
	insts, _, err := Instances(tags, g.Collection, g.Gaz, OmitMaybe)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainModel(adtree.NewTrainConfig(), tags, g.Collection, g.Gaz, OmitMaybe); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(insts)), "instances/op")
}
