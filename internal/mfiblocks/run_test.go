package mfiblocks

import (
	"io"
	"reflect"
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
	for _, p := range res.Pairs {
		if len(res.PairBlocks[p]) == 0 {
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
	for p, blocks := range res.PairBlocks {
		best := 0.0
		for _, bi := range blocks {
			if s := res.Blocks[bi].Score; s > best {
				best = s
			}
		}
		if got := res.PairScores[p]; got != best {
			t.Errorf("pair %v score %v != best block score %v", p, got, best)
		}
	}
	_ = record.MakePair // keep record import for readability of pair types
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

// drainSpill collects a spill result's merged stream.
func drainSpill(t *testing.T, res *Result) map[record.Pair]float64 {
	t.Helper()
	it, err := res.Spill.Iter()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[record.Pair]float64)
	for {
		p, score, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out[p] = score
	}
	return out
}

// TestRunSpillMatchesInMemory asserts the spilled candidate stream holds
// exactly the pairs and max-combined scores of the unspilled run, for a
// cap small enough to force many disk runs and a cap that never spills.
func TestRunSpillMatchesInMemory(t *testing.T) {
	g := smallItaly(t, 300)
	want, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) < 100 {
		t.Fatalf("baseline too small to exercise spilling: %d pairs", len(want.Pairs))
	}

	for _, capEntries := range []int{32, 1 << 20} {
		cfg := NewConfig()
		cfg.SpillPairs = capEntries
		cfg.SpillDir = t.TempDir()
		res, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs != nil || res.PairScores != nil || res.PairBlocks != nil {
			t.Fatalf("cap=%d: spill run populated in-memory pair state", capEntries)
		}
		if capEntries == 32 && res.Spill.Stats().Runs == 0 {
			t.Fatal("cap=32 never spilled; fixture too small")
		}
		got := drainSpill(t, res)
		if len(got) != len(want.PairScores) {
			t.Fatalf("cap=%d: %d pairs, want %d", capEntries, len(got), len(want.PairScores))
		}
		for p, score := range want.PairScores {
			if got[p] != score {
				t.Fatalf("cap=%d: pair %v score %v, want %v", capEntries, p, got[p], score)
			}
		}
		if !reflect.DeepEqual(want.Covered, res.Covered) {
			t.Fatalf("cap=%d: Covered diverges", capEntries)
		}
		if !reflect.DeepEqual(want.Blocks, res.Blocks) {
			t.Fatalf("cap=%d: Blocks diverge", capEntries)
		}
		if err := res.Spill.Close(); err != nil {
			t.Fatal(err)
		}
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
