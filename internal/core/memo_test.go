package core

import (
	"fmt"
	"testing"

	"repro/internal/adtree"
	"repro/internal/mfiblocks"
)

// TestMemoWorkerStability is the memo arm of the equivalence suite:
// Resolution.Pairs (and the full ranked matches) must be byte-stable
// with the pair-similarity memo enabled (default and deliberately tiny,
// eviction-heavy) and disabled, shared by one worker or raced by two
// (TestScorerSourceEquivalence sweeps the worker counts proper). The
// memo stores pure kernel results, so residency and eviction order can
// never leak into outputs.
func TestMemoWorkerStability(t *testing.T) {
	fx := newFixture(t, 300)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        gen.Gaz,
		Preprocess: true,
		Gazetteer:  gen.Gaz,
		Model:      model,
		Classify:   true,
		SameSrc:    true,
	}

	serial := base
	serial.Workers = 1
	serial.MemoSize = -1
	ref, err := Run(serial, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	refPairs := ref.Pairs()

	for _, memo := range []int{-1, 0, 64} {
		for _, workers := range []int{1, 2} {
			opts := base
			opts.Workers = workers
			opts.MemoSize = memo
			got, err := Run(opts, gen.Collection)
			if err != nil {
				t.Fatalf("Run(memo=%d workers=%d): %v", memo, workers, err)
			}
			tag := fmt.Sprintf("memo=%d workers=%d", memo, workers)
			assertRunsEqual(t, tag, ref, got)
			gotPairs := got.Pairs()
			if len(gotPairs) != len(refPairs) {
				t.Fatalf("%s: %d pairs, want %d", tag, len(gotPairs), len(refPairs))
			}
			for i := range refPairs {
				if gotPairs[i] != refPairs[i] {
					t.Fatalf("%s: pair %d = %v, want %v", tag, i, gotPairs[i], refPairs[i])
				}
			}
			if memo >= 0 {
				sc := got.Report.Scoring
				if sc.MemoHits == 0 {
					t.Errorf("%s: memo saw no hits", tag)
				}
				if sc.InternedStrings == 0 {
					t.Errorf("%s: no strings interned", tag)
				}
			}
		}
	}
}

// TestScoreCandidatesMatchesRun checks the standalone scoring-stage
// entry point reproduces Run's ranked matches over the same blocking
// result.
func TestScoreCandidatesMatchesRun(t *testing.T) {
	fx := newFixture(t, 250)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        gen.Gaz,
		Preprocess: true,
		Gazetteer:  gen.Gaz,
		Model:      model,
		Classify:   true,
		SameSrc:    true,
	}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	// ScoreCandidates consumes the already-preprocessed collection.
	got := ScoreCandidates(opts, res.Collection, res.Blocking)
	if len(got) != len(res.Matches) {
		t.Fatalf("ScoreCandidates returned %d matches, Run had %d", len(got), len(res.Matches))
	}
	for i := range got {
		if got[i] != res.Matches[i] {
			t.Fatalf("match %d: %+v vs %+v", i, got[i], res.Matches[i])
		}
	}
}
