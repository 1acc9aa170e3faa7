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
	"repro/internal/telemetry"
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
				st, err := scoreCandidates(&opts, bs.work, candidatesOf(bs.blk, nil), cache, workers, telemetry.NewRegistry(), nil)
				if err != nil || len(st.matches) == 0 {
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
