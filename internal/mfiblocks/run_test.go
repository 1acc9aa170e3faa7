package mfiblocks

import (
	"path/filepath"
	"reflect"
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
// cap, not a mode: a cap the candidates exactly fit under returns the
// spec's resident Pairs (first-seen order), PairScores and exact
// per-iteration NewPairs, and never touches disk; EachPair delivers them
// in first-seen order. TestRunMatchesSpec's spilled row covers a cap the
// candidates outgrow.
func TestRunSpillMatchesInMemory(t *testing.T) {
	coll := specCorpora()["italy"].coll
	want := specRun(NewConfig(), coll)
	cfg := NewConfig()
	cfg.SpillPairs = len(want.Pairs)
	cfg.SpillDir = t.TempDir()
	res, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spill != nil {
		t.Fatal("a run that fits under its cap spilled")
	}
	matchesSpec(t, "exact cap", res, want)
	columnsMatch(t, "exact cap", res, NewCorpus(coll).BookIDs)
	if order, scores := collect(t, res); !reflect.DeepEqual(order, want.Pairs) || !reflect.DeepEqual(scores, want.PairScores) {
		t.Fatal("EachPair does not deliver the resident candidates in first-seen order")
	}
}

// TestEachPairReadsSpillOnce: EachPair consumes and closes a spilled
// result's merge, so a second call fails instead of delivering the
// candidates still in the window alone.
func TestEachPairReadsSpillOnce(t *testing.T) {
	cfg := NewConfig()
	cfg.SpillPairs = 16
	cfg.SpillDir = t.TempDir()
	res, err := Run(cfg, specCorpora()["italy"].coll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spill == nil {
		t.Fatal("a run past its cap did not spill")
	}
	if order, _ := collect(t, res); len(order) <= cfg.SpillPairs {
		t.Fatalf("the merge delivered %d pairs, want more than the cap of %d", len(order), cfg.SpillPairs)
	}
	if err := res.EachPair(func(record.Pair, float64) {}); err == nil {
		t.Fatal("a second EachPair on a spilled result succeeded")
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

// TestRunCorpusWithoutRecords is the record-free corpus row: the default
// scorer never needs raw records — the property the streaming pipeline's
// skeleton mode relies on — while ExpertSim refuses such a corpus.
func TestRunCorpusWithoutRecords(t *testing.T) {
	coll := specCorpora()["italy"].coll
	corpus := NewCorpus(coll)
	bare := &Corpus{Dict: corpus.Dict, Txns: corpus.Txns, BookIDs: corpus.BookIDs}
	got, err := RunCorpus(NewConfig(), bare)
	if err != nil {
		t.Fatal(err)
	}
	matchesSpec(t, "record-free", got, specRun(NewConfig(), coll))
	expert := NewConfig()
	expert.ExpertSim, expert.Geo = true, oneSpot
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
