package mfiblocks

import (
	"cmp"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/record"
)

func smallItaly(t testing.TB, persons int) *dataset.Generated {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = persons
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestRunFindsDuplicates(t *testing.T) {
	g := smallItaly(t, 500)
	cfg := NewConfig()
	res, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no candidate pairs produced")
	}
	truth := eval.NewPairSet(g.Gold.TruePairs())
	m := eval.Evaluate(res.Pairs, truth)
	t.Logf("records=%d truePairs=%d candidates=%d %v", g.Collection.Len(), len(truth), len(res.Pairs), m)
	if m.Recall < 0.4 {
		t.Errorf("recall %.3f too low; blocking is broken", m.Recall)
	}
	if m.Precision < 0.01 {
		t.Errorf("precision %.3f too low", m.Precision)
	}
}

func TestBlocksRespectInvariants(t *testing.T) {
	g := smallItaly(t, 300)
	cfg := NewConfig()
	res, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, b := range res.Blocks {
		if b.Size() < 2 {
			t.Errorf("block with %d members", b.Size())
		}
		maxSize := int(float64(b.MinSup) * cfg.P)
		if b.Size() > maxSize {
			t.Errorf("block size %d exceeds cap %d at minsup %d", b.Size(), maxSize, b.MinSup)
		}
		if b.Score < 0 || b.Score > 1 {
			t.Errorf("block score %v out of [0,1]", b.Score)
		}
	}
	// Every candidate pair must come from at least one block and carry a
	// positive score.
	best := bestBlockScores(res, g.Collection)
	for _, p := range res.Pairs {
		if _, ok := best[p]; !ok {
			t.Errorf("pair %v has no source block", p)
		}
		if res.PairScores[p] <= 0 {
			t.Errorf("pair %v has score %v", p, res.PairScores[p])
		}
	}
	// Coverage: every covered record appears in some pair.
	inPair := make(map[int64]bool)
	for _, p := range res.Pairs {
		inPair[p.A] = true
		inPair[p.B] = true
	}
	for i, covered := range res.Covered {
		id := g.Collection.Records[i].BookID
		if covered != inPair[id] {
			t.Errorf("record %d: covered=%v but inPair=%v", id, covered, inPair[id])
		}
	}
}

func TestCoverageMonotonic(t *testing.T) {
	g := smallItaly(t, 300)
	res, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	prev := 0
	for _, it := range res.Iterations {
		if it.CoveredNow < prev {
			t.Errorf("coverage decreased: %d -> %d at minsup %d", prev, it.CoveredNow, it.MinSup)
		}
		prev = it.CoveredNow
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	first := res.Iterations[0]
	if first.MinSup != NewConfig().MaxMinSup {
		t.Errorf("first iteration minsup = %d, want %d", first.MinSup, NewConfig().MaxMinSup)
	}
}

func TestNGControlsOverlap(t *testing.T) {
	g := smallItaly(t, 400)
	low := NewConfig()
	low.NG = 1.5
	high := NewConfig()
	high.NG = 5
	resLow, err := Run(low, g.Collection)
	if err != nil {
		t.Fatalf("Run(low): %v", err)
	}
	resHigh, err := Run(high, g.Collection)
	if err != nil {
		t.Fatalf("Run(high): %v", err)
	}
	if len(resHigh.Pairs) < len(resLow.Pairs) {
		t.Errorf("NG=5 produced fewer pairs (%d) than NG=1.5 (%d)", len(resHigh.Pairs), len(resLow.Pairs))
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"low maxminsup", func(c *Config) { c.MaxMinSup = 1 }},
		{"zero P", func(c *Config) { c.P = 0 }},
		{"zero NG", func(c *Config) { c.NG = 0 }},
		{"bad prune", func(c *Config) { c.PruneFraction = 1 }},
		{"expertsim without geo", func(c *Config) { c.ExpertSim = true; c.Geo = nil }},
	}
	for _, tc := range cases {
		cfg := NewConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", tc.name)
		}
	}
	good := NewConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := smallItaly(t, 200)
	r1, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pairs) != len(r2.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(r1.Pairs), len(r2.Pairs))
	}
	s1 := eval.NewPairSet(r1.Pairs)
	for _, p := range r2.Pairs {
		if !s1.Has(p) {
			t.Fatalf("pair %v only in second run", p)
		}
	}
	for p, sc := range r1.PairScores {
		if sc2 := r2.PairScores[p]; sc != sc2 {
			t.Fatalf("pair %v score %v vs %v", p, sc, sc2)
		}
	}
}

func TestExpertSimRuns(t *testing.T) {
	g := smallItaly(t, 200)
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = g.Gaz
	res, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Pairs) == 0 {
		t.Error("expert-sim run produced no pairs")
	}
}

func TestPairScoreIsMaxBlockScore(t *testing.T) {
	g := smallItaly(t, 200)
	res, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	best := bestBlockScores(res, g.Collection)
	if len(best) != len(res.PairScores) {
		t.Fatalf("blocks hold %d distinct pairs, PairScores %d", len(best), len(res.PairScores))
	}
	for p, s := range best {
		if got := res.PairScores[p]; got != s {
			t.Errorf("pair %v score %v != best block score %v", p, got, s)
		}
	}
}

// bestBlockScores recomputes, by enumerating every kept block's member
// pairs, the best score among the blocks containing each pair.
func bestBlockScores(res *Result, coll *record.Collection) map[record.Pair]float64 {
	best := make(map[record.Pair]float64)
	for _, b := range res.Blocks {
		for i, m := range b.Members {
			for _, o := range b.Members[i+1:] {
				p := record.MakePair(coll.Records[m].BookID, coll.Records[o].BookID)
				if s, seen := best[p]; !seen || b.Score > s {
					best[p] = b.Score
				}
			}
		}
	}
	return best
}

// stripElapsed zeroes the wall-clock field so iteration stats compare
// structurally.
func stripElapsed(stats []IterationStats) []IterationStats {
	out := append([]IterationStats(nil), stats...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// collect reads a result's candidates through EachPair, in the order it
// delivers them.
func collect(t *testing.T, res *Result) ([]record.Pair, map[record.Pair]float64) {
	t.Helper()
	var order []record.Pair
	scores := make(map[record.Pair]float64)
	if err := res.EachPair(func(p record.Pair, score float64) {
		order = append(order, p)
		scores[p] = score
	}); err != nil {
		t.Fatal(err)
	}
	return order, scores
}

// TestRunSpillMatchesInMemory asserts that spilling is an outcome of the
// cap, not a mode. A cap the candidates fit under returns the same
// resident Pairs (first-seen order), PairScores and exact per-iteration
// NewPairs as the default cap, and never touches disk. A cap small enough
// to force many disk runs returns only the spilled stream, which holds
// exactly the pairs and max-combined scores of the resident run. EachPair
// reads both forms: first-seen order when resident, (A, B) order when
// spilled.
func TestRunSpillMatchesInMemory(t *testing.T) {
	g := smallItaly(t, 300)
	want, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) < 100 {
		t.Fatalf("baseline too small to exercise spilling: %d pairs", len(want.Pairs))
	}
	if want.Spill != nil {
		t.Fatal("default cap spilled a 300-person fixture")
	}

	for _, capEntries := range []int{len(want.Pairs), 32} {
		cfg := NewConfig()
		cfg.SpillPairs = capEntries
		cfg.SpillDir = t.TempDir()
		res, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Covered, res.Covered) {
			t.Fatalf("cap=%d: Covered diverges", capEntries)
		}
		if !reflect.DeepEqual(want.Blocks, res.Blocks) {
			t.Fatalf("cap=%d: Blocks diverge", capEntries)
		}
		if capEntries == len(want.Pairs) {
			if res.Spill != nil {
				t.Fatalf("cap=%d: a run that fits under its cap spilled", capEntries)
			}
			if !reflect.DeepEqual(want.Pairs, res.Pairs) || !reflect.DeepEqual(want.PairScores, res.PairScores) {
				t.Fatalf("cap=%d: resident candidates diverge from the default cap's", capEntries)
			}
			if !reflect.DeepEqual(stripElapsed(want.Iterations), stripElapsed(res.Iterations)) {
				t.Fatalf("cap=%d: iteration stats diverge", capEntries)
			}
			if order, scores := collect(t, res); !reflect.DeepEqual(order, want.Pairs) || !reflect.DeepEqual(scores, want.PairScores) {
				t.Fatalf("cap=%d: EachPair does not deliver the resident candidates in first-seen order", capEntries)
			}
			continue
		}
		if res.Pairs != nil || res.PairScores != nil {
			t.Fatalf("cap=%d: spilled run also returned resident candidates", capEntries)
		}
		if res.Spill == nil || res.Spill.Stats().Runs == 0 {
			t.Fatal("cap=32 never spilled; fixture too small")
		}
		order, got := collect(t, res)
		if len(order) != len(got) || !reflect.DeepEqual(got, want.PairScores) {
			t.Fatalf("cap=%d: the merge delivers %d pairs (%d distinct), the resident run holds %d, or their scores differ", capEntries, len(order), len(got), len(want.PairScores))
		}
		if !slices.IsSortedFunc(order, func(a, b record.Pair) int {
			if a.A != b.A {
				return cmp.Compare(a.A, b.A)
			}
			return cmp.Compare(a.B, b.B)
		}) {
			t.Fatalf("cap=%d: the merge is not in (A, B) order", capEntries)
		}
	}
}

// TestSpillDirTouchedOnlyPastCap pins the disk seam of the one candidate
// accumulator. A spill directory that does not exist costs a run whose
// candidates fit under the cap nothing, because such a run never opens a
// file. A run that outgrows the cap fails with the spill's wrapped
// create error, not a panic or a partial result.
func TestSpillDirTouchedOnlyPastCap(t *testing.T) {
	g := smallItaly(t, 300)
	cfg := NewConfig()
	cfg.SpillDir = filepath.Join(t.TempDir(), "missing")
	res, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatalf("run under the cap: %v", err)
	}
	if res.Spill != nil || len(res.Pairs) == 0 {
		t.Fatalf("run under the cap: spilled %v, %d resident pairs", res.Spill != nil, len(res.Pairs))
	}

	cfg.SpillPairs = 32
	res, err = Run(cfg, g.Collection)
	if err == nil || !strings.Contains(err.Error(), "spill: create run") || res != nil {
		t.Fatalf("run past the cap into a missing directory: %v, result %v", err, res)
	}
}

// TestRunCorpusWithoutRecords asserts the default scorer never needs raw
// records — the property the streaming pipeline's skeleton mode relies
// on — while ExpertSim correctly refuses a record-free corpus.
func TestRunCorpusWithoutRecords(t *testing.T) {
	g := smallItaly(t, 200)
	corpus := NewCorpus(g.Collection)
	want, err := RunCorpus(NewConfig(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	bare := &Corpus{Dict: corpus.Dict, Txns: corpus.Txns, BookIDs: corpus.BookIDs}
	got, err := RunCorpus(NewConfig(), bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Pairs, got.Pairs) {
		t.Fatal("record-free corpus changed Pairs")
	}
	if !reflect.DeepEqual(want.PairScores, got.PairScores) {
		t.Fatal("record-free corpus changed PairScores")
	}

	expert := NewConfig()
	expert.ExpertSim = true
	expert.Geo = g.Gaz
	if _, err := RunCorpus(expert, bare); err == nil {
		t.Fatal("ExpertSim accepted a corpus without records")
	}
}

// TestCorpusValidate pins the structural checks.
func TestCorpusValidate(t *testing.T) {
	g := smallItaly(t, 50)
	corpus := NewCorpus(g.Collection)
	if err := corpus.validate(); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
	bad := *corpus
	bad.BookIDs = bad.BookIDs[:1]
	if err := bad.validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad = *corpus
	bad.Dict = nil
	if err := bad.validate(); err == nil {
		t.Error("nil dictionary accepted")
	}
	bad = *corpus
	bad.Records = bad.Records[:1]
	if err := bad.validate(); err == nil {
		t.Error("record misalignment accepted")
	}
}

// TestConfigValidateShardSpill extends the validation table to the
// spill cap.
func TestConfigValidateShardSpill(t *testing.T) {
	cfg := NewConfig()
	cfg.SpillPairs = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SpillPairs accepted")
	}
	cfg = NewConfig()
	cfg.SpillPairs = 1024
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid spill config rejected: %v", err)
	}
}
