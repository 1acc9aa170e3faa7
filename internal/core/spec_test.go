package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
)

// pipelineSpec is what the pipeline must produce from a collection under
// some options, derived by definition rather than by the scoring stage.
type pipelineSpec struct {
	work     *record.Collection // the collection after preprocessing
	blocking *mfiblocks.Result  // blocking at one worker
	matches  []RankedMatch
	sameSrc  int   // candidates dropped for sharing a source
	byModel  int   // candidates the Cls condition dropped
	features int64 // features the reached splitters test, summed over the scored candidates
}

// specPipeline states the scoring half of the pipeline. Blocking is
// mfiblocks.Run at one worker, its candidates resident, over the
// preprocessed records; that package's own spec (specRun) and
// blocking.golden pin it. Then, for every
// candidate pair: drop it when SameSrc is on and both reports carry the
// same non-empty source; score it with the model, as Model.Score over
// the full extractor's vector of the pair, counting the features its
// reached splitters test; drop it under Cls when that
// score is at or below 0; and give it its block score from PairScores,
// which is also its score when there is no model. The matches are
// ranked by score descending, then by pair.
func specPipeline(t testing.TB, opts Options, coll *record.Collection) *pipelineSpec {
	t.Helper()
	spec := &pipelineSpec{work: coll}
	if opts.Preprocess {
		gaz := opts.Gazetteer
		if gaz == nil {
			gaz = gazetteer.Builtin(0)
		}
		var err error
		if spec.work, err = PreprocessWith(coll, gaz); err != nil {
			t.Fatal(err)
		}
	}
	blocking := opts.Blocking
	blocking.Workers, blocking.SpillPairs = 1, 0
	blk, err := mfiblocks.Run(blocking, spec.work)
	if err != nil {
		t.Fatal(err)
	}
	spec.blocking = blk
	full := features.NewExtractor(opts.Geo)
	var profs []*features.Profile
	if opts.Model != nil {
		profs = features.NewProfileCache(full).Build(spec.work, 1)
	}
	for _, p := range blk.Pairs {
		ia, ib := spec.work.Index(p.A), spec.work.Index(p.B)
		a, b := spec.work.Records[ia], spec.work.Records[ib]
		if opts.SameSrc && a.Source != "" && a.Source == b.Source {
			spec.sameSrc++
			continue
		}
		m := RankedMatch{Pair: p, BlockScore: blk.PairScores[p], Score: blk.PairScores[p]}
		if opts.Model != nil {
			v := full.ExtractProfiled(profs[ia], profs[ib])
			m.Score = opts.Model.Score(v)
			var reached uint64
			referenceScore(opts.Model.Root, v, &reached)
			spec.features += int64(bits.OnesCount64(reached))
			if opts.Classify && m.Score <= 0 {
				spec.byModel++
				continue
			}
		}
		spec.matches = append(spec.matches, m)
	}
	slices.SortFunc(spec.matches, func(x, y RankedMatch) int {
		return cmp.Or(cmp.Compare(y.Score, x.Score), cmp.Compare(x.Pair.A, y.Pair.A), cmp.Compare(x.Pair.B, y.Pair.B))
	})
	return spec
}

// checkPipeline holds one row's resolution to the spec: the ranked
// matches, the discard counters, the features evaluated, the report's
// candidate and match totals, a profile per record when a model scored
// and none otherwise, at least two spill runs when the row capped its
// candidates, and the clustering at certainty 0.3 — down to every merged
// value when the row retained its records, by membership over skeleton
// records.
func checkPipeline(t *testing.T, label string, want *pipelineSpec, opts Options, retained bool, got *Resolution) {
	t.Helper()
	if !slices.Equal(got.Matches, want.matches) {
		t.Fatalf("%s: %d matches diverge from the spec's %d", label, len(got.Matches), len(want.matches))
	}
	sc, br := got.Report.Scoring, got.Report.Blocking
	if sc.SameSrcDropped != want.sameSrc || sc.ModelDropped != want.byModel {
		t.Fatalf("%s: dropped %d same-source and %d by model, the spec %d and %d", label, sc.SameSrcDropped, sc.ModelDropped, want.sameSrc, want.byModel)
	}
	if sc.FeaturesEvaluated != want.features {
		t.Fatalf("%s: %d features evaluated, the spec's walk reaches %d", label, sc.FeaturesEvaluated, want.features)
	}
	if br.Pairs != len(want.blocking.Pairs) || sc.Matches != len(want.matches) {
		t.Fatalf("%s: the report counts %d candidates and %d matches, the spec %d and %d", label, br.Pairs, sc.Matches, len(want.blocking.Pairs), len(want.matches))
	}
	profiles := 0
	if opts.Model != nil {
		profiles = got.Collection.Len()
	}
	if !holdsProfiles(got.profiles, profiles) {
		t.Fatalf("%s: the profile cache does not hold %d profiles, one per record with a model (%v)", label, profiles, opts.Model != nil)
	}
	if opts.Blocking.SpillPairs > 0 && br.SpillRuns < 2 {
		t.Fatalf("%s: %d spill runs; the row does not exercise the merge", label, br.SpillRuns)
	}
	wc := (&Resolution{Matches: want.matches, Collection: want.work}).Clusters(0.3)
	gc := got.Clusters(0.3)
	if retained {
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%s: the entities at certainty 0.3 diverge from the spec's", label)
		}
		return
	}
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d entities at certainty 0.3, the spec %d", label, len(gc), len(wc))
	}
	for i := range wc {
		if !slices.Equal(gc[i].Reports, wc[i].Reports) {
			t.Fatalf("%s: entity %d's reports diverge from the spec's", label, i)
		}
	}
}

// specFixture is the deployed configuration — a model trained on the
// corpus's tagged candidates, Cls, SameSrc, preprocessing — over a
// 300-person ItalySet, with its spec.
type specFixture struct {
	opts Options
	gen  *dataset.Generated
	spec *pipelineSpec
}

var specItalyOnce struct {
	sync.Once
	fx *specFixture
}

// specItaly builds the deployed fixture once per test binary and checks
// that it exercises every filter: the spec drops candidates for SameSrc
// and for Cls and still ranks some.
func specItaly(t *testing.T) *specFixture {
	t.Helper()
	specItalyOnce.Do(func() {
		opts, gen := scoringOptions(t, 300)
		spec := specPipeline(t, opts, gen.Collection)
		if len(spec.matches) == 0 || spec.sameSrc == 0 || spec.byModel == 0 {
			t.Fatalf("the fixture does not exercise every filter: %d matches, %d same-source, %d by model", len(spec.matches), spec.sameSrc, spec.byModel)
		}
		specItalyOnce.fx = &specFixture{opts, gen, spec}
	})
	if specItalyOnce.fx == nil {
		t.Fatal("the deployed fixture failed to build")
	}
	return specItalyOnce.fx
}

// Row sources: a row runs Run over the collection when its source is
// nil, and RunStream over the records the source opens otherwise.
func fromCollection(coll *record.Collection) func(*testing.T) RecordSource {
	return func(*testing.T) RecordSource { return NewCollectionSource(coll) }
}

func fromJSONL(coll *record.Collection) func(*testing.T) RecordSource {
	return func(t *testing.T) RecordSource {
		var buf bytes.Buffer
		if err := record.WriteJSONL(&buf, coll.Records); err != nil {
			t.Fatal(err)
		}
		return record.NewJSONLReader(&buf)
	}
}

func fromStore(coll *record.Collection) func(*testing.T) RecordSource {
	return func(t *testing.T) RecordSource {
		path := filepath.Join(t.TempDir(), "records.yvst")
		if err := store.WriteAll(path, coll.Records); err != nil {
			t.Fatal(err)
		}
		src, err := store.OpenWindowReader(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		return src
	}
}

// checkRow runs one row at each worker count and holds every run to
// want: Run over coll when open is nil, otherwise RunStream over the
// records open returns, retaining them or keeping skeletons. A row whose
// opts cap the candidates spills into a fresh directory.
func checkRow(t *testing.T, want *pipelineSpec, opts Options, coll *record.Collection, open func(*testing.T) RecordSource, retained bool, workers ...int) {
	t.Helper()
	for _, w := range workers {
		o := opts
		o.Workers = w
		if o.Blocking.SpillPairs > 0 {
			o.Blocking.SpillDir = t.TempDir()
		}
		var got *Resolution
		var err error
		if open == nil {
			got, err = Run(o, coll)
			retained = true
		} else {
			got, err = RunStream(StreamOptions{Options: o, RetainRecords: retained}, open(t))
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		checkPipeline(t, fmt.Sprintf("workers=%d", w), want, o, retained, got)
	}
}

// checkScoreCandidates holds ScoreCandidates over blk to want at each
// worker count.
func checkScoreCandidates(t *testing.T, fx *specFixture, blk *mfiblocks.Result, workers ...int) {
	t.Helper()
	for _, w := range workers {
		opts := fx.opts
		opts.Workers = w
		if got := ScoreCandidates(opts, fx.spec.work, blk); !slices.Equal(got, fx.spec.matches) {
			t.Fatalf("workers=%d: %d matches diverge from the spec's %d", w, len(got), len(fx.spec.matches))
		}
	}
}

// shuffled returns blk with its candidates in a seeded random order: the
// pairs and their position and block score columns move together.
func shuffled(blk *mfiblocks.Result) *mfiblocks.Result {
	out := *blk
	out.Pairs = slices.Clone(blk.Pairs)
	out.PairPositions = slices.Clone(blk.PairPositions)
	out.PairBlockScores = slices.Clone(blk.PairBlockScores)
	rand.New(rand.NewSource(5)).Shuffle(len(out.Pairs), func(i, j int) {
		out.Pairs[i], out.Pairs[j] = out.Pairs[j], out.Pairs[i]
		out.PairPositions[i], out.PairPositions[j] = out.PairPositions[j], out.PairPositions[i]
		out.PairBlockScores[i], out.PairBlockScores[j] = out.PairBlockScores[j], out.PairBlockScores[i]
	})
	return &out
}

// withoutModel is opts ranking by block score, with no model and no Cls.
func withoutModel(opts Options) Options {
	opts.Model, opts.Classify = nil, false
	return opts
}

// TestPipelineMatchesSpec holds each way of running the pipeline to the
// spec on the deployed fixture, one row per entry point: Run; RunStream
// with retained records from a .yvst file, its candidates spilled;
// RunStream over skeleton records from JSONL without a model, spilled;
// and ScoreCandidates over the candidates in shuffled order. The other
// rows are the tests below, each named after its knob.
func TestPipelineMatchesSpec(t *testing.T) {
	fx := specItaly(t)
	coll := fx.gen.Collection
	spilled := fx.opts
	spilled.Blocking.SpillPairs = 64
	t.Run("Run", func(t *testing.T) { checkRow(t, fx.spec, fx.opts, coll, nil, true, 1) })
	t.Run("RunStream/retained/yvst/spilled", func(t *testing.T) {
		checkRow(t, fx.spec, spilled, coll, fromStore(coll), true, 2)
	})
	t.Run("RunStream/skeleton/jsonl/spilled", func(t *testing.T) {
		opts := withoutModel(spilled)
		checkRow(t, specPipeline(t, opts, coll), opts, coll, fromJSONL(coll), false, 8)
	})
	t.Run("ScoreCandidates/shuffled", func(t *testing.T) {
		checkScoreCandidates(t, fx, shuffled(fx.spec.blocking), 1)
	})
}

// TestScorerSourceEquivalence is the deployed fixture's row for Run with
// its candidates spilled, at eight workers: the merge, converted to
// positions once, is the scoring stage's other input.
func TestScorerSourceEquivalence(t *testing.T) {
	fx := specItaly(t)
	opts := fx.opts
	opts.Blocking.SpillPairs = 64
	checkRow(t, fx.spec, opts, fx.gen.Collection, nil, true, 8)
}

// TestRunWorkerEquivalence holds Run to the spec without the filters:
// ranked by block score alone, at two workers, and by the model, at
// eight.
func TestRunWorkerEquivalence(t *testing.T) {
	fx := specItaly(t)
	coll := fx.gen.Collection
	opts := fx.opts
	opts.Classify, opts.SameSrc = false, false
	checkRow(t, specPipeline(t, withoutModel(opts), coll), withoutModel(opts), coll, nil, true, 2)
	checkRow(t, specPipeline(t, opts, coll), opts, coll, nil, true, 8)
}

// TestStreamShardEquivalence holds RunStream over skeleton records with
// spilled candidates to the spec on a second ItalySet seed, at one and at
// eight workers.
func TestStreamShardEquivalence(t *testing.T) {
	g := equivDataset(t, 200, 777)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	opts.Blocking.SpillPairs = 64
	checkRow(t, specPipeline(t, opts, g.Collection), opts, g.Collection, fromCollection(g.Collection), false, 1, 8)
}

// TestStreamRetainRecordsFullEquivalence is the row for RunStream with
// retained records and no model: the entities must carry every merged
// value of the preprocessed records.
func TestStreamRetainRecordsFullEquivalence(t *testing.T) {
	fx := specItaly(t)
	coll := fx.gen.Collection
	opts := withoutModel(fx.opts)
	opts.Blocking.SpillPairs = 128
	checkRow(t, specPipeline(t, opts, coll), opts, coll, fromCollection(coll), true, 2)
}

// TestStreamFromStore is the row for RunStream over skeleton records
// read from a .yvst store, its candidates spilled.
func TestStreamFromStore(t *testing.T) {
	g := equivDataset(t, 150, 1944)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	opts.Blocking.SpillPairs = 64
	checkRow(t, specPipeline(t, opts, g.Collection), opts, g.Collection, fromStore(g.Collection), false, 2)
}

// tieHeavyRecords builds groups of byte-identical records so block
// scores collide massively — candidate ties land on worker-chunk
// boundaries and in the same spill windows, the worst case for merge
// determinism.
func tieHeavyRecords(t *testing.T) *record.Collection {
	t.Helper()
	var records []*record.Record
	for group := 0; group < 12; group++ {
		for dup := 0; dup < 5; dup++ {
			r := &record.Record{BookID: int64(len(records) + 1), Source: fmt.Sprintf("list-%d", dup), Kind: record.List}
			r.Add(record.FirstName, fmt.Sprintf("Name%c", 'A'+group))
			r.Add(record.LastName, fmt.Sprintf("Fam%c", 'A'+group%4))
			r.Add(record.BirthYear, "1910")
			records = append(records, r)
		}
	}
	coll, err := record.NewCollection(records)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// TestStreamDeterministicUnderShardBoundaryTies is the ties row: the
// tie-heavy records through RunStream with a spill cap of 16, at one and
// at eight workers, must rank exactly the spec's matches.
func TestStreamDeterministicUnderShardBoundaryTies(t *testing.T) {
	coll := tieHeavyRecords(t)
	opts := Options{Blocking: mfiblocks.NewConfig(), SameSrc: true}
	opts.Blocking.PruneFraction = 0
	opts.Blocking.SpillPairs = 16
	want := specPipeline(t, opts, coll)
	if len(want.matches) == 0 {
		t.Fatal("tie-heavy fixture produced no matches")
	}
	checkRow(t, want, opts, coll, fromCollection(coll), false, 1, 8)
}

// TestScoreCandidatesMatchesRun is ScoreCandidates' row over the
// candidates in the order blocking emitted them, at two workers.
func TestScoreCandidatesMatchesRun(t *testing.T) {
	fx := specItaly(t)
	checkScoreCandidates(t, fx, fx.spec.blocking, 2)
}

// TestScoreCandidatesOrderAndWorkers is ScoreCandidates' row over
// shuffled candidates at two and at eight workers, which claim chunks of
// them concurrently: the ranking is a function of the candidate set
// alone. Under -race it puts the chunk cursor and the workers' concurrent
// PairScores reads in front of the detector.
func TestScoreCandidatesOrderAndWorkers(t *testing.T) {
	fx := specItaly(t)
	if n := len(fx.spec.blocking.Pairs); n < 2*scoreChunkSize {
		t.Fatalf("%d candidates do not fill two chunks", n)
	}
	checkScoreCandidates(t, fx, shuffled(fx.spec.blocking), 2, 8)
}

// TestScoringReadsPositions: the scoring stage reads a result's own
// position and block score columns in place whenever they are complete
// and index the scored collection's record order, and converts BookIDs
// to positions once otherwise, with the same ranking either way. Run's
// own result, in record order and in reverse, and the spec's result, as
// emitted and shuffled, are read in place; a collection in another
// record order and columns cut short are converted, and still rank the
// spec's matches.
func TestScoringReadsPositions(t *testing.T) {
	fx := specItaly(t)
	opts := fx.opts
	blk, work := fx.spec.blocking, fx.spec.work

	reverse := func(coll *record.Collection) *record.Collection {
		recs := slices.Clone(coll.Records)
		slices.Reverse(recs)
		out, err := record.NewCollection(recs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// inPlace reports whether scoring blk over work reads blk's own
	// column slices.
	inPlace := func(work *record.Collection, blk *mfiblocks.Result) bool {
		pos, scores, err := scoringColumns(work, blk, eachResident(blk))
		if err != nil {
			t.Fatal(err)
		}
		if len(pos) != len(blk.Pairs) || len(scores) != len(blk.Pairs) || len(pos) == 0 {
			t.Fatalf("%d positions and %d block scores for %d candidates", len(pos), len(scores), len(blk.Pairs))
		}
		return &pos[0] == &blk.PairPositions[0] && &scores[0] == &blk.PairBlockScores[0]
	}
	// In reverse record order a pair's lower BookID is its later
	// position.
	for _, coll := range []*record.Collection{fx.gen.Collection, reverse(fx.gen.Collection)} {
		res, err := Run(opts, coll)
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocking.Spill != nil || !inPlace(res.Collection, res.Blocking) {
			t.Fatal("Run's own result is not scored from its own columns")
		}
	}

	cut := *blk
	cut.PairPositions = cut.PairPositions[:len(cut.PairPositions)-1]
	for _, row := range []struct {
		name    string
		work    *record.Collection
		blk     *mfiblocks.Result
		inPlace bool
	}{
		{"as emitted", work, blk, true},
		{"shuffled", work, shuffled(blk), true},
		{"reordered collection", reverse(work), blk, false},
		{"columns cut short", work, &cut, false},
	} {
		if got := inPlace(row.work, row.blk); got != row.inPlace {
			t.Fatalf("%s: columns read in place %v, want %v", row.name, got, row.inPlace)
		}
		for _, w := range []int{1, 8} {
			o := opts
			o.Workers = w
			if got := ScoreCandidates(o, row.work, row.blk); !slices.Equal(got, fx.spec.matches) {
				t.Fatalf("%s, workers=%d: %d matches diverge from the spec's %d", row.name, w, len(got), len(fx.spec.matches))
			}
		}
	}
}
