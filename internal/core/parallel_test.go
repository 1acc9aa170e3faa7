package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/adtree"
	"repro/internal/mfiblocks"
)

func assertRunsEqual(t *testing.T, tag string, ref, got *Resolution) {
	t.Helper()
	if len(ref.Matches) != len(got.Matches) {
		t.Fatalf("%s: match counts differ: %d vs %d", tag, len(ref.Matches), len(got.Matches))
	}
	for i := range ref.Matches {
		if ref.Matches[i] != got.Matches[i] {
			t.Fatalf("%s: match %d differs: %+v vs %+v", tag, i, ref.Matches[i], got.Matches[i])
		}
	}
	if ref.DiscardedSameSrc != got.DiscardedSameSrc {
		t.Fatalf("%s: DiscardedSameSrc %d vs %d", tag, ref.DiscardedSameSrc, got.DiscardedSameSrc)
	}
	if ref.DiscardedByModel != got.DiscardedByModel {
		t.Fatalf("%s: DiscardedByModel %d vs %d", tag, ref.DiscardedByModel, got.DiscardedByModel)
	}
}

// TestRunWorkerEquivalence is the parallel-vs-inline equivalence suite
// for the configurations TestScorerSourceEquivalence does not run (that
// test sweeps workers over the deployed model+Classify+SameSrc setup and
// both candidate sources): ranked by block score alone, and by the model
// with no filter, Run must yield identical Matches (pairs, block scores,
// model scores, and order) and discard counters at every worker count.
func TestRunWorkerEquivalence(t *testing.T) {
	for _, persons := range []int{200, 400} {
		fx := newFixture(t, persons)
		gen := fx.gen
		model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
		if err != nil {
			t.Fatalf("TrainModel: %v", err)
		}

		configs := []struct {
			name string
			opts Options
		}{
			{"blockOnly", Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz}},
			{"model", Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz, Model: model}},
		}
		for _, cfg := range configs {
			serial := cfg.opts
			serial.Workers = 1
			ref, err := Run(serial, gen.Collection)
			if err != nil {
				t.Fatalf("Run(serial %s): %v", cfg.name, err)
			}
			for _, workers := range []int{2, 7} {
				par := cfg.opts
				par.Workers = workers
				got, err := Run(par, gen.Collection)
				if err != nil {
					t.Fatalf("Run(%s workers=%d): %v", cfg.name, workers, err)
				}
				tag := fmt.Sprintf("persons=%d %s workers=%d", persons, cfg.name, workers)
				assertRunsEqual(t, tag, ref, got)
			}
		}
	}
}

// TestScorePairSpillMode is the regression test for /api/pair under
// -spill-pairs: spilling never builds Blocking.PairScores, and a
// candidate SameSrc or the classifier dropped has no ranked match, yet
// ScorePair must answer every candidate exactly as the in-memory run
// does — its block score the best kept block holding both reports.
func TestScorePairSpillMode(t *testing.T) {
	fx := newFixture(t, 200)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz, SameSrc: true}
	withModel := base
	withModel.Model, withModel.Classify = model, true
	for _, cfg := range []struct {
		name string
		opts Options
	}{{"samesrc", base}, {"model", withModel}} {
		ref, err := Run(cfg.opts, gen.Collection)
		if err != nil {
			t.Fatal(err)
		}
		spilled := cfg.opts
		spilled.Blocking.SpillPairs = 64
		res, err := Run(spilled, gen.Collection)
		if err != nil {
			t.Fatal(err)
		}
		assertRunsEqual(t, cfg.name, ref, res)
		if res.Blocking.PairScores != nil {
			t.Fatal("spill run unexpectedly materialized PairScores")
		}
		if ref.DiscardedSameSrc == 0 || len(ref.Matches) == len(ref.Blocking.Pairs) {
			t.Fatalf("%s: no candidate was dropped, so every pair has a ranked match", cfg.name)
		}
		for _, p := range ref.Blocking.Pairs {
			want, err := ref.ScorePair(p.A, p.B)
			if err != nil {
				t.Fatalf("%s: ScorePair(%v): %v", cfg.name, p, err)
			}
			if want.BlockScore != ref.Blocking.PairScores[p] {
				t.Fatalf("%s: ScorePair(%v) block score %v, blocking scored it %v", cfg.name, p, want.BlockScore, ref.Blocking.PairScores[p])
			}
			if got, err := res.ScorePair(p.A, p.B); err != nil || got != want {
				t.Fatalf("%s: spilled ScorePair(%v) = %+v, %v; in memory %+v", cfg.name, p, got, err, want)
			}
		}
		for _, m := range res.Matches {
			if got, err := res.ScorePair(m.Pair.A, m.Pair.B); err != nil || got != m {
				t.Fatalf("%s: ScorePair(%v) = %+v, %v; ranked as %+v", cfg.name, m.Pair, got, err, m)
			}
		}
		if m, err := res.ScorePair(res.Matches[0].Pair.A, -1); err == nil {
			t.Fatalf("ScorePair with unknown report = %+v, want error", m)
		}
	}
}

// TestScorePairAgreesWithRanking verifies the query-time profiled scorer
// reproduces the ranked list's scores exactly.
func TestScorePairAgreesWithRanking(t *testing.T) {
	fx := newFixture(t, 300)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz, Model: model}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}
	n := len(res.Matches)
	if n > 50 {
		n = 50
	}
	for _, m := range res.Matches[:n] {
		got, err := res.ScorePair(m.Pair.A, m.Pair.B)
		if err != nil {
			t.Fatalf("ScorePair(%v): %v", m.Pair, err)
		}
		if got != m {
			t.Fatalf("ScorePair(%v) = %+v, ranked as %+v", m.Pair, got, m)
		}
	}
	if _, err := res.ScorePair(-1, res.Matches[0].Pair.A); err == nil {
		t.Error("ScorePair with unknown report did not fail")
	}
	if _, err := res.ScorePair(res.Matches[0].Pair.A, res.Matches[0].Pair.A); err == nil {
		t.Error("ScorePair of a report with itself did not fail")
	}
}

// TestAtCertaintyNaNSafe pins the NaN semantics: a NaN threshold matches
// nothing instead of silently returning every match (sort.Search's
// predicate is always false against NaN).
func TestAtCertaintyNaNSafe(t *testing.T) {
	r := &Resolution{Matches: []RankedMatch{{Score: 2}, {Score: 1}, {Score: 0}}}
	if got := r.AtCertainty(math.NaN()); len(got) != 0 {
		t.Fatalf("AtCertainty(NaN) returned %d matches, want 0", len(got))
	}
	if got := r.AtCertainty(math.Inf(-1)); len(got) != 3 {
		t.Fatalf("AtCertainty(-Inf) returned %d matches, want all 3", len(got))
	}
	if got := r.AtCertainty(math.Inf(1)); len(got) != 0 {
		t.Fatalf("AtCertainty(+Inf) returned %d matches, want 0", len(got))
	}
}

// TestClustersCutByAcceptedCount checks a certainty acts only through the
// number of matches it accepts: two certainties between the same adjacent
// scores cluster identically, one more accepted match changes the
// clustering, and NaN accepts nothing, like any certainty above the best
// score.
func TestClustersCutByAcceptedCount(t *testing.T) {
	fx := newFixture(t, 200)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct adjacent scores, and two certainties strictly between.
	k := 1
	for k < len(res.Matches) && res.Matches[k].Score == res.Matches[k-1].Score {
		k++
	}
	if k == len(res.Matches) {
		t.Skip("all match scores are equal")
	}
	hi, lo := res.Matches[k-1].Score, res.Matches[k].Score
	t1, t2 := lo+(hi-lo)/3, lo+2*(hi-lo)/3
	if !(lo < t1 && t1 < t2 && t2 < hi) {
		t.Skipf("no room between adjacent scores %v and %v", lo, hi)
	}

	a := res.Clusters(t1)
	if b := res.Clusters(t1); !reflect.DeepEqual(a, b) {
		t.Fatal("a repeated Clusters returned different content")
	}
	if c := res.Clusters(t2); !reflect.DeepEqual(a, c) {
		t.Fatal("certainties between the same adjacent scores cluster differently")
	}
	if d := res.Clusters(lo); reflect.DeepEqual(a, d) {
		t.Fatal("accepting one more match did not change the clustering")
	}

	for _, theta := range []float64{math.NaN(), math.Inf(1)} {
		if ents := res.Clusters(theta); len(ents) != fx.gen.Collection.Len() {
			t.Fatalf("Clusters(%v) = %d entities, want %d singletons", theta, len(ents), fx.gen.Collection.Len())
		}
	}
}
