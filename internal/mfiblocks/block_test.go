package mfiblocks

import (
	"math"
	"testing"

	"repro/internal/fpgrowth"
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

type constGeo struct{ km float64 }

func (c constGeo) Distance(a, b string) (float64, bool) { return c.km, true }

func TestSoftScoreUsesFsim(t *testing.T) {
	// Typos that defeat exact Jaccard still score under fsim.
	recs := []*record.Record{
		mkRec(1, it(record.FirstName, "Bella"), it(record.BirthYear, "1920")),
		mkRec(2, it(record.FirstName, "Della"), it(record.BirthYear, "1921")),
	}
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = constGeo{km: 5}
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
	cfg.Geo = constGeo{km: 0}
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

func TestBlockPairsEnumeration(t *testing.T) {
	b := &Block{Members: []int{3, 5, 9}}
	pairs := b.Pairs(nil)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	want := [][2]int{{3, 5}, {3, 9}, {5, 9}}
	for i, p := range want {
		if pairs[i] != p {
			t.Errorf("pair %d = %v, want %v", i, pairs[i], p)
		}
	}
	if b.Size() != 3 {
		t.Errorf("Size = %d", b.Size())
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
}

func TestEnforceNGDropsBelowMinScore(t *testing.T) {
	cfg := NewConfig()
	cfg.MinScore = 0.5
	blocks := []*Block{
		{Members: []int{0, 1}, Score: 0.6},
		{Members: []int{2, 3}, Score: 0.4},
	}
	kept, _, _ := enforceNG(&cfg, blocks, make([]int, 4))
	if len(kept) != 1 || kept[0].Score != 0.6 {
		t.Errorf("MinScore filter failed: %+v", kept)
	}
}
