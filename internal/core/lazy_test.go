package core

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// candidateVectors blocks a generated collection and returns, per
// candidate pair, the two profiles and the full feature vector.
func candidateVectors(t *testing.T, cfg dataset.Config) (*features.Extractor, [][2]*features.Profile, []features.Vector) {
	t.Helper()
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	work, err := PreprocessWith(gen.Collection, gen.Gaz)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := mfiblocks.Run(mfiblocks.NewConfig(), work)
	if err != nil {
		t.Fatal(err)
	}
	ex := features.NewExtractor(gen.Gaz)
	profs := features.NewProfileCache(ex).Build(work, 2)
	pairs := make([][2]*features.Profile, len(blk.Pairs))
	vecs := make([]features.Vector, len(blk.Pairs))
	for i, p := range blk.Pairs {
		pairs[i] = [2]*features.Profile{profs[work.Index(p.A)], profs[work.Index(p.B)]}
		vecs[i] = ex.ExtractProfiled(pairs[i][0], pairs[i][1])
	}
	return ex, pairs, vecs
}

// randomTree grows an ADTree of 1–20 splitters over defs: each hangs under
// a random prediction node already in the tree (the root often, so nodes
// carry several splitters), tests a random feature — one pair in three a
// feature of rare, which few pairs have — and, when numeric, compares
// against a value some pair really has, so the strict "<" boundary is hit.
func randomTree(rng *rand.Rand, defs []features.Def, rare []int, observed [][]float64) *adtree.Model {
	m := &adtree.Model{Root: &adtree.PredictionNode{Value: rng.NormFloat64()}, Defs: defs}
	nodes := []*adtree.PredictionNode{m.Root}
	m.Rounds = 1 + rng.Intn(20)
	for order := 1; order <= m.Rounds; order++ {
		parent := m.Root
		if rng.Intn(3) > 0 {
			parent = nodes[rng.Intn(len(nodes))]
		}
		d := defs[rng.Intn(len(defs))]
		if rng.Intn(3) == 0 {
			d = defs[rare[rng.Intn(len(rare))]]
		}
		cond := adtree.Condition{Feature: d.ID}
		if d.Kind == features.Numeric {
			cond.Numeric = true
			cond.Threshold = 0.5
			if vals := observed[d.ID]; len(vals) > 0 {
				cond.Threshold = vals[rng.Intn(len(vals))]
			}
		} else {
			cond.Level = d.Levels[rng.Intn(len(d.Levels))]
		}
		s := &adtree.SplitterNode{
			Order: order,
			Cond:  cond,
			True:  &adtree.PredictionNode{Value: rng.NormFloat64()},
			False: &adtree.PredictionNode{Value: rng.NormFloat64()},
		}
		parent.Splitters = append(parent.Splitters, s)
		nodes = append(nodes, s.True, s.False)
	}
	return m
}

// referenceScore is the tree walk written out over a full vector, noting
// in reached every feature a reached splitter tests.
func referenceScore(p *adtree.PredictionNode, v features.Vector, reached *uint64) float64 {
	sum := p.Value
	for _, s := range p.Splitters {
		*reached |= 1 << s.Cond.Feature
		switch s.Cond.Eval(v) {
		case 1:
			sum += referenceScore(s.True, v, reached)
		case 0:
			sum += referenceScore(s.False, v, reached)
		}
	}
	return sum
}

// TestLazyScoreMatchesFullVector is the demand-driven scorer's property
// test: over 200 random trees per corpus and every blocking candidate of
// the 300-person Italy and RandomSet presets, ScorePair through a reused
// evaluator and Score over the full vector agree to the bit with each
// other and with the written-out walk, and the evaluator computed exactly
// the features the reached splitters test — no fewer (a stale slot would
// change a score) and no more (the point of pulling).
func TestLazyScoreMatchesFullVector(t *testing.T) {
	italy := dataset.ItalyConfig()
	italy.Persons = 300
	defs := features.Defs()
	for name, cfg := range map[string]dataset.Config{"italy": italy, "random": dataset.RandomSetConfig(300)} {
		ex, pairs, vecs := candidateVectors(t, cfg)
		present := make([]int, len(defs))
		observed := make([][]float64, len(defs))
		for _, v := range vecs {
			for id, x := range v {
				if x.Present {
					present[id]++
					if defs[id].Kind == features.Numeric && len(observed[id]) < 64 {
						observed[id] = append(observed[id], x.Num)
					}
				}
			}
		}
		var rare []int
		for id, n := range present {
			if n*10 < len(vecs) {
				rare = append(rare, id)
			}
		}
		if len(pairs) < 500 || len(rare) == 0 {
			t.Fatalf("%s: %d candidates, %d rarely-present features: the fixture is too thin", name, len(pairs), len(rare))
		}

		rng := rand.New(rand.NewSource(27))
		var ev features.PairEval
		pulled, scored, skippedSubtrees := 0, 0, 0
		for k := 0; k < 200; k++ {
			m := randomTree(rng, defs, rare, observed)
			var used uint64
			for _, id := range m.UsedFeatures() {
				used |= 1 << id
			}
			for i, p := range pairs {
				ev.Reset(ex, p[0], p[1])
				lazy := m.ScorePair(&ev)
				var reached uint64
				ref := referenceScore(m.Root, vecs[i], &reached)
				if full := m.Score(vecs[i]); math.Float64bits(lazy) != math.Float64bits(full) || math.Float64bits(lazy) != math.Float64bits(ref) {
					t.Fatalf("%s: tree %d, pair %d: ScorePair %v, Score %v, reference walk %v\n%s", name, k, i, lazy, full, ref, m)
				}
				if got := ev.Evaluated(); got != reached || reached&^used != 0 {
					t.Fatalf("%s: tree %d, pair %d: evaluated %048b, reached splitters test %048b, the tree uses %048b\n%s", name, k, i, got, reached, used, m)
				}
				pulled += bits.OnesCount64(reached)
				scored++
				if reached != used {
					skippedSubtrees++
				}
			}
		}
		if skippedSubtrees == 0 {
			t.Errorf("%s: every pair reached every splitter: the trees do not exercise pruning", name)
		}
		t.Logf("%s: %d candidates × 200 trees, %.2f features pulled per scoring", name, len(pairs), float64(pulled)/float64(scored))
	}
}

// TestDeferredBlockScore is the row for the model without the Cls
// condition, resident at eight workers and spilled at two: every
// candidate SameSrc keeps is scored and ranked, and the block score it
// gets must be its own, from a PairScores probe or carried by the merge;
// the features evaluated are the spec's, the same as with Cls on.
func TestDeferredBlockScore(t *testing.T) {
	fx := specItaly(t)
	opts := fx.opts
	opts.Classify = false
	want := specPipeline(t, opts, fx.gen.Collection)
	if want.features != fx.spec.features {
		t.Fatalf("the spec evaluates %d features without Cls, %d with it", want.features, fx.spec.features)
	}
	checkRow(t, want, opts, fx.gen.Collection, nil, true, 8)
	opts.Blocking.SpillPairs = 64
	checkRow(t, want, opts, fx.gen.Collection, nil, true, 2)
}

// TestScoringAllocs: the demand-driven path allocates nothing per pair —
// the evaluator is the worker's own and the walk reads it through static
// calls, with or without a kernel memo — and Resolution.ScorePair, which
// keeps its evaluator on the stack, allocates nothing per call, as before
// it pulled features. A scoring call allocates one kernel memo per
// worker, not one per chunk.
func TestScoringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool drops items)")
	}
	opts, res := scoringFixture(t, 120)
	ms := res.Matches
	ex := res.Profiles().Extractor()
	var plain, memoized features.PairEval
	memoized.MemoizeKernels()
	i := 0
	for name, ev := range map[string]*features.PairEval{"plain": &plain, "memoized": &memoized} {
		if n := testing.AllocsPerRun(len(ms), func() {
			m := ms[i%len(ms)]
			i++
			a, b := res.Collection.Index(m.Pair.A), res.Collection.Index(m.Pair.B)
			ev.Reset(ex, res.Profiles().Get(a), res.Profiles().Get(b))
			if s := opts.Model.ScorePair(ev); s != m.Score {
				t.Fatalf("%s: %v rescored %v, ranked with %v", name, m.Pair, s, m.Score)
			}
		}); n != 0 {
			t.Errorf("scoring a pair through a reused %s evaluator allocates %v times, want 0", name, n)
		}
	}

	// The candidates, repeated to fill at least 64 chunks, are scored on
	// two workers. Beyond what a profile build of the same cache
	// allocates, the call may allocate its memos (512 KiB each, one per
	// worker), its buffers and its matches, but nothing near one memo per
	// chunk (32 MiB).
	var pairs []record.Pair
	for len(pairs) < 64*scoreChunkSize {
		pairs = append(pairs, res.Blocking.Pairs...)
	}
	cache := features.NewProfileCache(scoringExtractor(&opts))
	cache.Build(res.Collection, 2) // publishes the value table; later builds derive nothing
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	build := allocated(func() { cache.Build(res.Collection, 2) })
	scoring := allocated(func() {
		if _, err := scoreCandidates(&opts, res.Collection, residentPairs(&mfiblocks.Result{Pairs: pairs}), cache, 2, nil); err != nil {
			t.Fatal(err)
		}
	})
	if extra := scoring - build; extra > 8<<20 {
		t.Errorf("scoring %d candidates on 2 workers allocates %d B beyond its profile build (%d B): more than one kernel memo per worker", len(pairs), extra, build)
	}
	if n := testing.AllocsPerRun(len(ms), func() {
		m := ms[i%len(ms)]
		i++
		if got, err := res.ScorePair(m.Pair.A, m.Pair.B); err != nil || got != m {
			t.Fatalf("ScorePair(%v) = %+v, %v; ranked as %+v", m.Pair, got, err, m)
		}
	}); n != 0 {
		t.Errorf("Resolution.ScorePair allocates %v times per call, want 0 (its evaluator must stay on the stack)", n)
	}
}
