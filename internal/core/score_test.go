package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/adtree"
	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// TestScorerSourceEquivalence is the scoring stage's equivalence lock on
// the configuration deployments run — trained model, Cls condition,
// SameSrc — across both candidate sources and the worker counts: an
// in-memory batch Run, a batch Run whose candidates spill, and a
// RunStream over retained records whose candidates spill must rank
// bit-identical Matches with equal discard counters and report totals.
func TestScorerSourceEquivalence(t *testing.T) {
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
		Metrics:    telemetry.NewRegistry(),
	}
	sources := []struct {
		name  string
		spill bool
		run   func(Options) (*Resolution, error)
	}{
		{"batch", false, func(o Options) (*Resolution, error) { return Run(o, gen.Collection) }},
		{"batch-spill", true, func(o Options) (*Resolution, error) { return Run(o, gen.Collection) }},
		{"stream-spill", true, func(o Options) (*Resolution, error) {
			return RunStream(StreamOptions{Options: o, RetainRecords: true}, NewCollectionSource(gen.Collection))
		}},
	}

	var ref *Resolution
	for _, src := range sources {
		for _, workers := range []int{1, 2, 8} {
			tag := fmt.Sprintf("%s workers=%d", src.name, workers)
			opts := base
			opts.Workers = workers
			if src.spill {
				opts.Blocking.SpillPairs = 64
				opts.Blocking.SpillDir = t.TempDir()
			}
			got, err := src.run(opts)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if ref == nil {
				ref = got
				if len(ref.Matches) == 0 || ref.DiscardedSameSrc == 0 || ref.DiscardedByModel == 0 {
					t.Fatalf("%s: fixture does not exercise every filter: %d matches, %d same-source, %d by model",
						tag, len(ref.Matches), ref.DiscardedSameSrc, ref.DiscardedByModel)
				}
				continue
			}
			assertRunsEqual(t, tag, ref, got)
			want, sc := ref.Report.Scoring, got.Report.Scoring
			if sc.Candidates != want.Candidates || sc.Matches != want.Matches {
				t.Errorf("%s: report says %d candidates, %d matches; reference %d, %d",
					tag, sc.Candidates, sc.Matches, want.Candidates, want.Matches)
			}
			// Both sources emit the same instruments.
			if sc.Chunks == 0 || sc.ProfilesBuilt != got.Collection.Len() {
				t.Errorf("%s: report says %d chunks, %d profiles built for %d records",
					tag, sc.Chunks, sc.ProfilesBuilt, got.Collection.Len())
			}
			if runs := got.Report.Blocking.SpillRuns; src.spill && runs < 2 {
				t.Errorf("%s: %d spill runs, the cell does not exercise the merge", tag, runs)
			}
		}
	}
}

// TestNoModelBuildsNoProfiles: profiles exist to feed the model, so a
// run ranked by block score alone builds none — in particular not from
// the skeleton records a RetainRecords=false stream keeps.
func TestNoModelBuildsNoProfiles(t *testing.T) {
	fx := newFixture(t, 120)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz, SameSrc: true, Workers: 2}
	batch, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStream(StreamOptions{Options: opts}, NewCollectionSource(fx.gen.Collection))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Resolution{"batch": batch, "skeleton stream": stream} {
		if sc := res.Report.Scoring; sc.ProfilesBuilt != 0 || res.Profiles().Len() != 0 {
			t.Errorf("%s: %d profiles built, %d cached, want none without a model", name, sc.ProfilesBuilt, res.Profiles().Len())
		}
	}
}

// failingSource yields full chunks of one pair and fails on its third
// pull.
type failingSource struct {
	pair          record.Pair
	pulls, closes int
}

var errSourceBroke = errors.New("run file went away")

func (s *failingSource) next(buf []candidate) (int, error) {
	s.pulls++
	if s.pulls == 3 {
		return 0, errSourceBroke
	}
	for i := range buf {
		buf[i] = candidate{pair: s.pair, blockScore: 1}
	}
	return len(buf), nil
}

func (s *failingSource) close() error {
	s.closes++
	return nil
}

// TestScorerSourceError: when the candidate source fails mid-stream the
// scorer returns the error, closes the source exactly once, and every
// worker has exited by the time it returns.
func TestScorerSourceError(t *testing.T) {
	fx := newFixture(t, 60)
	work := fx.gen.Collection
	pair := record.MakePair(work.Records[0].BookID, work.Records[1].BookID)
	opts := Options{}
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		src := &failingSource{pair: pair}
		cache := features.NewProfileCache(features.NewExtractor(nil))
		_, err := scoreCandidates(&opts, work, src, cache, workers, telemetry.NewRegistry(), nil)
		if !errors.Is(err, errSourceBroke) {
			t.Errorf("workers=%d: err = %v, want the source's error", workers, err)
		}
		if src.closes != 1 {
			t.Errorf("workers=%d: source closed %d times, want once", workers, src.closes)
		}
		if src.pulls != 3 {
			t.Errorf("workers=%d: source pulled %d times, want no pull after the failure", workers, src.pulls)
		}
		// The workers are joined before scoreCandidates returns; give the
		// runtime a moment to retire their goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("workers=%d: %d goroutines after the failure, %d before", workers, n, baseline)
		}
	}
}
