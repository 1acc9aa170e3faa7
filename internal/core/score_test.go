package core

import (
	"errors"
	"math"
	"math/bits"
	"os"
	"runtime"
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

// TestNoModelBuildsNoProfiles is the row for a stream over skeleton
// records that never spills, ranked by block score: profiles exist to
// feed the model, so checkPipeline requires none here — in particular
// not from the skeletons.
func TestNoModelBuildsNoProfiles(t *testing.T) {
	fx := specItaly(t)
	opts := withoutModel(fx.opts)
	checkRow(t, specPipeline(t, opts, fx.gen.Collection), opts, fx.gen.Collection, fromCollection(fx.gen.Collection), false, 2)
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

// TestModelProfilesScoreIdentically: the scoring stage profiles records
// for its model's features alone, which may change no score. On both
// 300-person presets, with a model trained on Italy, the fixture model and
// a root-only model, every candidate's ranked score and its ScorePair
// score through the model-restricted cache must equal Model.Score over the
// full extractor's vector bit for bit, features_evaluated must equal what
// a walk over full profiles pulls, and the restricted profiles must intern
// fewer strings than full ones (none at all for the root-only model).
func TestModelProfilesScoreIdentically(t *testing.T) {
	trained, italy := scoringOptions(t, 300)
	f, err := os.Open("../adtree/testdata/model.json")
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := adtree.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rootOnly := &adtree.Model{Root: &adtree.PredictionNode{Value: 0.25}, Defs: features.Defs()}
	random, err := dataset.Generate(dataset.RandomSetConfig(300))
	if err != nil {
		t.Fatal(err)
	}

	for _, preset := range []struct {
		name string
		gen  *dataset.Generated
	}{{"italy", italy}, {"random", random}} {
		gen := preset.gen
		for _, mc := range []struct {
			name  string
			model *adtree.Model
		}{{"trained", trained.Model}, {"fixture", fixture}, {"root-only", rootOnly}} {
			tag := preset.name + "/" + mc.name
			opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz,
				Model: mc.model, Workers: 2, Metrics: telemetry.NewRegistry()}
			res, err := Run(opts, gen.Collection)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			work := res.Collection
			if !holdsProfiles(res.profiles, work.Len()) {
				t.Fatalf("%s: the profile cache does not hold the %d records' profiles", tag, work.Len())
			}
			full := features.NewExtractor(gen.Gaz)
			profs := features.NewProfileCache(full).Build(work, 1)
			score := func(p record.Pair) (float64, int64) {
				ia, ib := work.Index(p.A), work.Index(p.B)
				var ev features.PairEval
				ev.Reset(full, profs[ia], profs[ib])
				mc.model.ScorePair(&ev)
				return mc.model.Score(full.ExtractProfiled(profs[ia], profs[ib])), int64(bits.OnesCount64(ev.Evaluated()))
			}

			var pulled int64
			for _, p := range res.Blocking.Pairs {
				want, n := score(p)
				pulled += n
				got, err := res.ScorePair(p.A, p.B)
				if err != nil {
					t.Fatalf("%s: ScorePair(%v): %v", tag, p, err)
				}
				if math.Float64bits(got.Score) != math.Float64bits(want) {
					t.Fatalf("%s: %v scores %v through the restricted profiles, %v over the full vector", tag, p, got.Score, want)
				}
			}
			for _, m := range res.Matches {
				if want, _ := score(m.Pair); math.Float64bits(m.Score) != math.Float64bits(want) {
					t.Fatalf("%s: %v ranked with %v, %v over the full vector", tag, m.Pair, m.Score, want)
				}
			}
			if len(res.Matches) != len(res.Blocking.Pairs) {
				t.Fatalf("%s: %d matches for %d candidates with SameSrc and Cls off", tag, len(res.Matches), len(res.Blocking.Pairs))
			}
			if got := res.Report.Scoring.FeaturesEvaluated; got != pulled {
				t.Errorf("%s: %d features evaluated, a walk over full profiles pulls %d", tag, got, pulled)
			}
			interned := res.Report.Scoring.InternedStrings
			t.Logf("%s: %d candidates, %d features evaluated, %d of %d strings interned", tag, len(res.Blocking.Pairs), pulled, interned, full.InternedStrings())
			if interned >= full.InternedStrings() || (mc.model == rootOnly) != (interned == 0) {
				t.Errorf("%s: the model's profiles interned %d strings, full profiles %d", tag, interned, full.InternedStrings())
			}
		}
	}
}
