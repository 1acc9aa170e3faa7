package mfiblocks

import (
	"math"
	"slices"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/gazetteer"
	"repro/internal/record"
)

// scorerFixture builds a scorer over hand-made records.
func scorerFixture(t *testing.T, cfg Config, recs []*record.Record) *scorer {
	t.Helper()
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	dict := record.BuildDictionary(coll)
	txns := fpgrowth.NewTransactions(len(recs), 0)
	for _, r := range recs {
		txns.Append(dict.Encode(r))
	}
	return newScorer(&cfg, dict, txns, recs)
}

func mkRec(id int64, items ...record.Item) *record.Record {
	r := &record.Record{BookID: id}
	r.Items = append(r.Items, items...)
	return r
}

func it(t record.ItemType, v string) record.Item { return record.Item{Type: t, Value: v} }

func TestClusterJaccard(t *testing.T) {
	recs := []*record.Record{
		mkRec(1, it(record.FirstName, "Guido"), it(record.LastName, "Foa"), it(record.Gender, "0")),
		mkRec(2, it(record.FirstName, "Guido"), it(record.LastName, "Foa"), it(record.BirthYear, "1920")),
		mkRec(3, it(record.FirstName, "Guido"), it(record.LastName, "Levi")),
	}
	sc := scorerFixture(t, NewConfig(), recs)

	// Pair {0,1}: intersection {F:Guido, L:Foa} = 2, union 4 -> 0.5.
	if got := sc.score([]int{0, 1}, new(jaccardScratch)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("score({0,1}) = %v, want 0.5", got)
	}
	// Triple: intersection {F:Guido} = 1, union 5 -> 0.2.
	if got := sc.score([]int{0, 1, 2}, new(jaccardScratch)); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("score({0,1,2}) = %v, want 0.2", got)
	}
	// Set-monotonic: growing the cluster cannot raise the score.
	if sc.score([]int{0, 1, 2}, new(jaccardScratch)) > sc.score([]int{0, 1}, new(jaccardScratch)) {
		t.Error("cluster Jaccard must be set-monotonic")
	}
	// Degenerate block.
	if got := sc.score([]int{0}, new(jaccardScratch)); got != 0 {
		t.Errorf("singleton score = %v", got)
	}
}

func TestWeightedJaccardFavorsNames(t *testing.T) {
	// Two records sharing a first name vs two sharing only gender: with
	// expert weights the name pair must score higher.
	recs := []*record.Record{
		mkRec(1, it(record.FirstName, "Guido"), it(record.Gender, "0")),
		mkRec(2, it(record.FirstName, "Guido"), it(record.Gender, "1")),
		mkRec(3, it(record.FirstName, "Elsa"), it(record.Gender, "0")),
		mkRec(4, it(record.FirstName, "Sara"), it(record.Gender, "0")),
	}
	cfg := NewConfig()
	cfg.ExpertWeights = true
	sc := scorerFixture(t, cfg, recs)
	nameShare := sc.score([]int{0, 1}, new(jaccardScratch))
	genderShare := sc.score([]int{2, 3}, new(jaccardScratch))
	if nameShare <= genderShare {
		t.Errorf("expert weights: name share %v <= gender share %v", nameShare, genderShare)
	}

	// Under uniform weights the two pairs score identically.
	scU := scorerFixture(t, NewConfig(), recs)
	if a, b := scU.score([]int{0, 1}, new(jaccardScratch)), scU.score([]int{2, 3}, new(jaccardScratch)); math.Abs(a-b) > 1e-12 {
		t.Errorf("uniform weights differ: %v vs %v", a, b)
	}
}

// oneSpot is a catalogue of the fixtures' cities, all at one point: any
// two of them are 0 km apart, so every city pair ties at fsim 1.
var oneSpot = gazetteer.New([]gazetteer.Place{
	{City: "Roma", County: "Roma", Region: "Lazio", Country: "Italy", Lat: 45, Lon: 7},
	{City: "Milano", County: "Milano", Region: "Lombardia", Country: "Italy", Lat: 45, Lon: 7},
	{City: "Torino", County: "Torino", Region: "Piemonte", Country: "Italy", Lat: 45, Lon: 7},
})

func TestSoftScoreUsesFsim(t *testing.T) {
	// Typos that defeat exact Jaccard still score under fsim.
	recs := []*record.Record{
		mkRec(1, it(record.FirstName, "Bella"), it(record.BirthYear, "1920")),
		mkRec(2, it(record.FirstName, "Della"), it(record.BirthYear, "1921")),
	}
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = oneSpot
	sc := scorerFixture(t, cfg, recs)
	soft := sc.score([]int{0, 1}, new(jaccardScratch))
	if soft <= 0 {
		t.Errorf("soft score = %v, want > 0 for near-identical items", soft)
	}
	// Exact Jaccard sees nothing in common.
	hard := scorerFixture(t, NewConfig(), recs).score([]int{0, 1}, new(jaccardScratch))
	if hard != 0 {
		t.Errorf("hard score = %v, want 0", hard)
	}
	if soft > 1 {
		t.Errorf("soft score %v out of range", soft)
	}
}

func TestSoftJaccardGreedyMatching(t *testing.T) {
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = oneSpot
	recs := []*record.Record{
		mkRec(1, it(record.FirstName, "Guido")),
		mkRec(2, it(record.FirstName, "Guido")),
	}
	sc := scorerFixture(t, cfg, recs)
	// One perfect match over 1+1-1 items -> 1.0.
	if got := sc.softJaccard(recs[0], recs[1]); math.Abs(got-1) > 1e-12 {
		t.Errorf("softJaccard identical = %v", got)
	}
	// Cross-type values never match.
	a := mkRec(3, it(record.FirstName, "Guido"))
	b := mkRec(4, it(record.LastName, "Guido"))
	if got := sc.softJaccard(a, b); got != 0 {
		t.Errorf("cross-type softJaccard = %v", got)
	}
}

func TestEnforceNGOrderingAndThreshold(t *testing.T) {
	cfg := NewConfig()
	cfg.NG = 0.2 // tiny budget: NG*MaxMinSup = 1 comparison per record
	cfg.MinScore = 0.0
	blocks := []*Block{
		{Members: []int{0, 1}, Score: 0.9},
		{Members: []int{0, 2}, Score: 0.5}, // record 0 over budget
		{Members: []int{3, 4}, Score: 0.3},
	}
	spent := make([]int, 5)
	kept, th, ngPruned := enforceNG(&cfg, blocks, spent)
	if len(kept) != 2 {
		t.Fatalf("kept %d blocks: %+v", len(kept), kept)
	}
	if kept[0].Score != 0.9 || kept[1].Score != 0.3 {
		t.Errorf("kept wrong blocks: %+v", kept)
	}
	if th != 0.3 {
		t.Errorf("threshold = %v, want lowest kept score", th)
	}
	if ngPruned != 1 {
		t.Errorf("ngPruned = %d, want 1", ngPruned)
	}
	// Budgets persist: a second call sees record 3/4 exhausted.
	kept2, _, _ := enforceNG(&cfg, []*Block{{Members: []int{3, 4}, Score: 0.8}}, spent)
	if len(kept2) != 0 {
		t.Errorf("lifetime budget not enforced: %+v", kept2)
	}

	// Every admitted block charges Size()-1, even for neighbours already
	// counted: {5,6} and {5,6,7} share neighbour 6 yet both charge record
	// 5 (1 + 2 = 3 units), so {5,8} no longer fits although record 5 would
	// have only three distinct neighbours with it.
	cfg = NewConfig()
	cfg.MaxMinSup, cfg.NG = 3, 1 // budget ceil(1*3) = 3 units
	cfg.MinScore = 0
	spent = make([]int, 9)
	kept, _, ngPruned = enforceNG(&cfg, []*Block{
		{Members: []int{5, 6}, Score: 0.9},
		{Members: []int{5, 6, 7}, Score: 0.8},
		{Members: []int{5, 8}, Score: 0.7},
	}, spent)
	if len(kept) != 2 || ngPruned != 1 || spent[5] != 3 || spent[6] != 3 || spent[7] != 2 {
		t.Errorf("shared neighbour not charged twice: kept %d, ngPruned %d, spent %v", len(kept), ngPruned, spent)
	}
}

// TestRunDropsBlocksAtOrBelowMinScore pins where the score floor lives:
// the materializer drops a block at or below MinScore before the NG pass
// sees it, so no kept block of any level scores at or below the floor,
// while a run with no floor keeps some that do.
func TestRunDropsBlocksAtOrBelowMinScore(t *testing.T) {
	g := smallItaly(t, 300)
	const floor = 0.5
	cfg := NewConfig()
	cfg.MinScore = -1
	all, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(all.Blocks, func(b *Block) bool { return b.Score <= floor }) {
		t.Fatalf("no block of %d scores at or below %v: the fixture cannot test the floor", len(all.Blocks), floor)
	}
	cfg.MinScore = floor
	res, err := Run(cfg, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) == 0 {
		t.Fatal("the floor kept no block")
	}
	for _, b := range res.Blocks {
		if b.Score <= floor {
			t.Fatalf("kept a block scoring %v at MinScore %v", b.Score, floor)
		}
	}
}
