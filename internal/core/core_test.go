package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
	"repro/internal/names"
	"repro/internal/record"
)

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// testFixture generates a small Italy-like dataset, runs blocking once to
// obtain candidates, and simulates expert tagging — the setup shared by
// the pipeline tests.
type testFixture struct {
	gen  *dataset.Generated
	tags *dataset.TagSet
}

func newFixture(t testing.TB, persons int) *testFixture {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = persons
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pre, err := PreprocessWith(gen.Collection, gen.Gaz)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	blk, err := mfiblocks.Run(mfiblocks.NewConfig(), pre)
	if err != nil {
		t.Fatalf("mfiblocks: %v", err)
	}
	tagger := &dataset.Tagger{Gold: gen.Gold, Coll: gen.Collection, Rng: rand.New(rand.NewSource(99))}
	return &testFixture{gen: gen, tags: tagger.TagPairs(blk.Pairs)}
}

func TestPipelineWithModelImprovesPrecision(t *testing.T) {
	fx := newFixture(t, 600)
	gen := fx.gen

	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}

	base := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz}
	resBase, err := Run(base, gen.Collection)
	if err != nil {
		t.Fatalf("Run(base): %v", err)
	}

	full := base
	full.Model = model
	full.Classify = true
	full.SameSrc = true
	resFull, err := Run(full, gen.Collection)
	if err != nil {
		t.Fatalf("Run(full): %v", err)
	}

	truth := eval.NewPairSet(gen.Gold.TruePairs())
	mBase := eval.Evaluate(resBase.Pairs(), truth)
	mFull := eval.Evaluate(resFull.Pairs(), truth)
	t.Logf("base: %v", mBase)
	t.Logf("full: %v (sameSrc dropped %d, model dropped %d)", mFull, resFull.Report.Scoring.SameSrcDropped, resFull.Report.Scoring.ModelDropped)

	if mFull.Precision <= mBase.Precision {
		t.Errorf("classification did not improve precision: %.3f -> %.3f", mBase.Precision, mFull.Precision)
	}
	if mFull.F1 < mBase.F1 {
		t.Errorf("F1 degraded with the full pipeline: %.3f -> %.3f", mBase.F1, mFull.F1)
	}
}

// TestPreprocessCopyOnWrite: PreprocessWith leaves its input as it was,
// hands back a record preprocessing leaves unchanged as the same pointer,
// and a changed one as a fresh record with its own items — each equal to
// a canonicalized clone of its input.
// TestRankedOrderMatchesScores asserts the ranked list is sorted.
func TestRankedOrderMatchesScores(t *testing.T) {
	fx := newFixture(t, 250)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Fatalf("ranking violated at %d: %v after %v", i, res.Matches[i].Score, res.Matches[i-1].Score)
		}
	}
}

func TestPreprocessCopyOnWrite(t *testing.T) {
	gen := newFixture(t, 150).gen
	before := make([]*record.Record, gen.Collection.Len())
	for i, r := range gen.Collection.Records {
		before[i] = r.Clone()
	}
	pre, err := PreprocessWith(gen.Collection, gen.Gaz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen.Collection.Records, before) {
		t.Fatal("PreprocessWith modified its input")
	}
	shared, fresh := 0, 0
	for i, in := range gen.Collection.Records {
		out := pre.Records[i]
		want := in.Clone()
		for k := range want.Items {
			it := &want.Items[k]
			switch {
			case it.Type == record.FirstName || it.Type == record.FatherName || it.Type == record.MotherName || it.Type == record.SpouseName:
				it.Value = names.Canonical(it.Value)
			case it.Type.IsPlace():
				if _, part, _ := it.Type.Place(); part == record.City {
					if p, ok := gen.Gaz.Lookup(it.Value); ok {
						it.Value = p.City
					}
				}
			}
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("record %d preprocessed to\n%v\nwant\n%v", i, out, want)
		}
		switch {
		case reflect.DeepEqual(want, in):
			if out != in {
				t.Fatalf("record %d: unchanged by preprocessing, yet copied", i)
			}
			shared++
		default:
			if out == in || &out.Items[0] == &in.Items[0] {
				t.Fatalf("record %d: changed by preprocessing, yet shares the input's items", i)
			}
			fresh++
		}
	}
	if shared == 0 || fresh == 0 {
		t.Fatalf("%d records shared and %d copied: the fixture must have both", shared, fresh)
	}
}

func TestPreprocessFoldsVariantsForTruePairs(t *testing.T) {
	// Preprocessing must strictly increase the exact-item overlap of true
	// pairs: "Isacco" and "Yitzhak" become one item, "Turin" and "Torino"
	// one place. Overlap is what frequent-itemset blocking sees.
	fx := newFixture(t, 500)
	gen := fx.gen
	pre, err := PreprocessWith(gen.Collection, gen.Gaz)
	if err != nil {
		t.Fatal(err)
	}
	sharedKeys := func(coll *record.Collection, p record.Pair) int {
		a, b := coll.ByID(p.A), coll.ByID(p.B)
		set := make(map[string]bool)
		for _, k := range a.Keys() {
			set[k] = true
		}
		n := 0
		for _, k := range b.Keys() {
			if set[k] {
				n++
			}
		}
		return n
	}
	before, after := 0, 0
	for _, p := range gen.Gold.TruePairs() {
		before += sharedKeys(gen.Collection, p)
		after += sharedKeys(pre, p)
	}
	t.Logf("true-pair shared items: %d raw -> %d preprocessed", before, after)
	if after <= before {
		t.Errorf("preprocessing did not increase true-pair overlap: %d -> %d", before, after)
	}
	// And it must never merge items of different types or touch BookIDs.
	for i, r := range pre.Records {
		if r.BookID != gen.Collection.Records[i].BookID {
			t.Fatal("preprocessing reordered records")
		}
		if len(r.Items) != len(gen.Collection.Records[i].Items) {
			t.Fatal("preprocessing changed item count")
		}
	}
}

func TestAtCertaintyMonotonic(t *testing.T) {
	fx := newFixture(t, 400)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, MaybeAsNo)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz, Model: model}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}
	prev := len(res.Matches) + 1
	thetas := []float64{-5, -1, 0, 0.5, 1, 2, 5}
	for _, th := range thetas {
		n := len(res.AtCertainty(th))
		if n > prev {
			t.Errorf("AtCertainty(%v) grew: %d > %d", th, n, prev)
		}
		prev = n
		for _, m := range res.AtCertainty(th) {
			if m.Score < th {
				t.Fatalf("AtCertainty(%v) returned score %v", th, m.Score)
			}
		}
	}
	// Raising certainty should raise precision on this data.
	truth := eval.NewPairSet(gen.Gold.TruePairs())
	loose := eval.Evaluate(matchPairs(res.AtCertainty(-5)), truth)
	tight := eval.Evaluate(matchPairs(res.AtCertainty(1.5)), truth)
	if len(res.AtCertainty(1.5)) > 10 && tight.Precision < loose.Precision {
		t.Errorf("precision at high certainty (%.3f) below loose (%.3f)", tight.Precision, loose.Precision)
	}
}

func matchPairs(ms []RankedMatch) []record.Pair {
	out := make([]record.Pair, len(ms))
	for i, m := range ms {
		out[i] = m.Pair
	}
	return out
}

func TestClustersPartitionCollection(t *testing.T) {
	fx := newFixture(t, 300)
	gen := fx.gen
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	ents := res.Clusters(0.2)
	seen := make(map[int64]bool)
	total := 0
	for _, e := range ents {
		for _, id := range e.Reports {
			if seen[id] {
				t.Fatalf("report %d in two entities", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != gen.Collection.Len() {
		t.Errorf("clusters cover %d of %d records", total, gen.Collection.Len())
	}
}

func TestNarrativeMentionsName(t *testing.T) {
	fx := newFixture(t, 200)
	gen := fx.gen
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: true, Gazetteer: gen.Gaz}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Clusters(0.3) {
		if len(e.Reports) < 2 {
			continue
		}
		n := e.Narrative()
		if n == "" {
			t.Fatal("empty narrative")
		}
		if first, ok := e.Best(record.FirstName); ok {
			if !contains(n, first) {
				t.Errorf("narrative %q does not mention first name %q", n, first)
			}
		}
		break
	}
}

func TestRunValidations(t *testing.T) {
	fx := newFixture(t, 100)
	opts := Options{Blocking: mfiblocks.NewConfig(), Classify: true} // Classify without Model
	if _, err := Run(opts, fx.gen.Collection); err == nil {
		t.Error("Classify without Model should fail")
	}
	bad := Options{Blocking: mfiblocks.Config{}}
	if _, err := Run(bad, fx.gen.Collection); err == nil {
		t.Error("invalid blocking config should fail")
	}
}

func TestCrossValidateAccuracy(t *testing.T) {
	fx := newFixture(t, 500)
	insts, _, err := Instances(fx.tags, fx.gen.Collection, fx.gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := CrossValidate(adtree.NewTrainConfig(), insts, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CV accuracy over %d instances: %.3f", len(insts), acc)
	if acc < 0.85 {
		t.Errorf("classifier accuracy %.3f below 0.85", acc)
	}
}
