package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/adtree"
	"repro/internal/dataset"
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
	base, gen := scoringOptions(t, 300)
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

// failingSource yields full chunks of one pair and fails from its third
// pull on.
type failingSource struct {
	pair          record.Pair
	mu            sync.Mutex
	pulls, closes int
}

var errSourceBroke = errors.New("run file went away")

func (s *failingSource) next(buf []candidate) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pulls++
	if s.pulls >= 3 {
		return 0, errSourceBroke
	}
	for i := range buf {
		buf[i] = candidate{pair: s.pair, blockScore: 1}
	}
	return len(buf), nil
}

func (*failingSource) blockScore(c *candidate) float64 { return c.blockScore }

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
		_, err := scoreCandidates(&opts, work, src, cache, workers, nil)
		if !errors.Is(err, errSourceBroke) {
			t.Errorf("workers=%d: err = %v, want the source's error", workers, err)
		}
		if src.closes != 1 {
			t.Errorf("workers=%d: source closed %d times, want once", workers, src.closes)
		}
		// A worker already inside next when the failure lands finishes
		// that pull; none starts another.
		if src.pulls < 3 || src.pulls > 3+workers-1 {
			t.Errorf("workers=%d: source pulled %d times, want no worker to pull again after the failure", workers, src.pulls)
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

// scoringOptions returns the configuration deployments run — trained
// model, Cls condition, SameSrc — over a generated collection.
func scoringOptions(t *testing.T, persons int) (Options, *dataset.Generated) {
	t.Helper()
	fx := newFixture(t, persons)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        gen.Gaz,
		Preprocess: true,
		Gazetteer:  gen.Gaz,
		Model:      model,
		Classify:   true,
		SameSrc:    true,
		Metrics:    telemetry.NewRegistry(),
	}, gen
}

// scoringFixture runs scoringOptions once and returns what
// ScoreCandidates re-scores.
func scoringFixture(t *testing.T, persons int) (Options, *Resolution) {
	t.Helper()
	opts, gen := scoringOptions(t, persons)
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	return opts, res
}

// TestScoreCandidatesMatchesRun checks the standalone scoring-stage
// entry point reproduces Run's ranked matches over the same blocking
// result.
func TestScoreCandidatesMatchesRun(t *testing.T) {
	opts, res := scoringFixture(t, 250)
	// ScoreCandidates consumes the already-preprocessed collection.
	got := ScoreCandidates(opts, res.Collection, res.Blocking)
	if !slices.Equal(got, res.Matches) {
		t.Fatalf("ScoreCandidates returned %d matches that differ from Run's %d", len(got), len(res.Matches))
	}
}

// TestScoreCandidatesOrderAndWorkers is the scorer's metamorphic check:
// the ranking is a function of the candidate set alone, so neither the
// order blocking emitted the pairs in nor the number of workers claiming
// chunks of them may change one element of it. Under -race it also puts
// the pairSlice cursor and the workers' concurrent PairScores reads in
// front of the detector.
func TestScoreCandidatesOrderAndWorkers(t *testing.T) {
	opts, res := scoringFixture(t, 300)
	if len(res.Blocking.Pairs) < 2*scoreChunkSize {
		t.Fatalf("%d candidates do not fill two chunks", len(res.Blocking.Pairs))
	}
	shuffled := *res.Blocking
	shuffled.Pairs = slices.Clone(res.Blocking.Pairs)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled.Pairs), func(i, j int) {
		shuffled.Pairs[i], shuffled.Pairs[j] = shuffled.Pairs[j], shuffled.Pairs[i]
	})
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		for name, blk := range map[string]*mfiblocks.Result{"first-seen": res.Blocking, "shuffled": &shuffled} {
			got := ScoreCandidates(opts, res.Collection, blk)
			if !slices.Equal(got, res.Matches) {
				t.Errorf("workers=%d %s: %d matches differ from the reference run's %d", workers, name, len(got), len(res.Matches))
			}
		}
	}
}
