package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/mfiblocks"
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

// TestDeferredBlockScore: the scorer asks the candidate source for a block
// score only once the filters and the model have kept the pair, and what
// it gets must be the pair's own — over the in-memory slice (a PairScores
// probe) and the spilled merge (carried by the stream), for every worker
// count, with the Cls condition on, off, and with no model at all (every
// candidate kept). The same cells pin FeaturesEvaluated: a total over the
// candidates the model scored, so equal across sources, worker counts,
// repeated runs and the Cls setting, and zero without a model.
func TestDeferredBlockScore(t *testing.T) {
	base, gen := scoringOptions(t, 300)
	model := base.Model
	var withModel int64
	for _, cfg := range []struct {
		name     string
		model    *adtree.Model
		classify bool
	}{
		{"model+Cls", model, true},
		{"model", model, false},
		{"no model", nil, false},
	} {
		opts := base
		opts.Model, opts.Classify = cfg.model, cfg.classify
		opts.Workers = 1
		ref, err := Run(opts, gen.Collection)
		if err != nil {
			t.Fatal(err)
		}
		scores := ref.Blocking.PairScores
		want := ref.Report.Scoring.FeaturesEvaluated
		switch {
		case cfg.model == nil && want != 0:
			t.Errorf("%s: %d features evaluated without a model", cfg.name, want)
		case cfg.model != nil && withModel == 0:
			withModel = want
		case cfg.model != nil && want != withModel:
			t.Errorf("%s: %d features evaluated, %d with Cls on: classification changed what was scored", cfg.name, want, withModel)
		}
		if cfg.model != nil && want < int64(ref.Report.Scoring.Candidates-ref.DiscardedSameSrc) {
			t.Errorf("%s: %d features evaluated for %d scored candidates", cfg.name, want, ref.Report.Scoring.Candidates-ref.DiscardedSameSrc)
		}
		for _, spill := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				tag := fmt.Sprintf("%s spill=%t workers=%d", cfg.name, spill, workers)
				o := opts
				o.Workers = workers
				if spill {
					o.Blocking.SpillPairs = 64
					o.Blocking.SpillDir = t.TempDir()
				}
				got, err := Run(o, gen.Collection)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if spill && got.Report.Blocking.SpillRuns < 2 {
					t.Fatalf("%s: %d spill runs, the cell does not exercise the merge", tag, got.Report.Blocking.SpillRuns)
				}
				assertRunsEqual(t, tag, ref, got)
				for _, m := range got.Matches {
					if bs, ok := scores[m.Pair]; !ok || m.BlockScore != bs {
						t.Fatalf("%s: %v has block score %v, blocking scored it %v (candidate: %t)", tag, m.Pair, m.BlockScore, bs, ok)
					}
					if cfg.model == nil && m.Score != m.BlockScore {
						t.Fatalf("%s: %v ranked by %v, its block score is %v", tag, m.Pair, m.Score, m.BlockScore)
					}
				}
				if n := got.Report.Scoring.FeaturesEvaluated; n != want {
					t.Errorf("%s: %d features evaluated, the reference run %d", tag, n, want)
				}
			}
		}
	}
}

// TestScoringAllocs: the demand-driven path allocates nothing per pair —
// the evaluator is the worker's own and the walk reads it through static
// calls — and Resolution.ScorePair, which keeps its evaluator on the
// stack, allocates nothing per call, as before it pulled features.
func TestScoringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool drops items)")
	}
	opts, res := scoringFixture(t, 120)
	ms := res.Matches
	ex := res.Profiles().Extractor()
	var ev features.PairEval
	i := 0
	if n := testing.AllocsPerRun(len(ms), func() {
		m := ms[i%len(ms)]
		i++
		a, b := res.Collection.ByID(m.Pair.A), res.Collection.ByID(m.Pair.B)
		ev.Reset(ex, res.Profiles().Get(a), res.Profiles().Get(b))
		if s := opts.Model.ScorePair(&ev); s != m.Score {
			t.Fatalf("%v rescored %v, ranked with %v", m.Pair, s, m.Score)
		}
	}); n != 0 {
		t.Errorf("scoring a pair through a reused evaluator allocates %v times, want 0", n)
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
