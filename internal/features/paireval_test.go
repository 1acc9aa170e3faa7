package features

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

// countingGeo is a non-CoordResolver Geo that counts its lookups, so a
// test can see whether a geo feature was computed or served from a memo.
type countingGeo struct{ calls *int }

func (g countingGeo) Distance(a, b string) (float64, bool) {
	*g.calls++
	return fakeGeo{}.Distance(a, b)
}

// trickyRecords exercise every way a feature can be present, missing or
// awkward: multi-valued and repeated names in mixed case, a city the
// gazetteer cannot resolve, partial and unparsable birth dates, empty
// sources, and a record with nothing at all.
func trickyRecords(city string) []*record.Record {
	recs := valueTableRecords(city)
	recs[1].Source = ""
	recs = append(recs,
		rec(func(r *record.Record) {
			r.Source = "list:1"
			for _, v := range []string{"John", "JOHN", "Harris"} {
				r.Add(record.FirstName, v)
			}
			r.Add(record.LastName, "Foa")
			r.Add(record.BirthYear, "1920")
			r.Add(record.BirthMonth, "11")
			r.Add(record.BirthDay, "18")
			r.Add(record.BirthCity, city)
			r.Add(record.DeathCity, "Atlantis")
			r.Add(record.Gender, "0")
			r.Add(record.Profession, "Merchant")
		}),
		rec(func(r *record.Record) {
			r.Add(record.FirstName, "harris")
			r.Add(record.FirstName, "Jon")
			r.Add(record.LastName, "FOA")
			r.Add(record.BirthYear, "1921")
			r.Add(record.BirthDay, "x8") // present, not a number
			r.Add(record.BirthCity, "Atlantis")
			r.Add(record.DeathCity, city)
			r.Add(record.Gender, "1")
			r.Add(record.Profession, "merchant")
		}),
		rec(func(r *record.Record) {
			r.Source = "list:1"
			r.Add(record.LastName, "Foa")
			r.Add(record.BirthYear, "1920")
			r.Add(record.BirthMonth, "11")
			r.Add(record.BirthDay, "18")
		}),
		rec(func(*record.Record) {}),
	)
	return recs
}

// TestPairEvalMatchesExtract: for every pair of the tricky records and a
// sample of generated ones, under a gazetteer Geo, an interface-only Geo
// and none, At(id) equals Extract(ra, rb)[id] field for field for all 48
// ids — a missing feature reads as the zero Value even when the slot held
// another pair's value — in whatever order the ids are asked for, and
// the evaluator has computed exactly the ids asked.
func TestPairEvalMatchesExtract(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 60
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	city := "Torino"
	if _, _, known := gen.Gaz.ResolveCoord(city); !known {
		t.Fatalf("fixture: the gazetteer should resolve %q", city)
	}
	recs := append(trickyRecords(city), gen.Collection.Records[:40]...)
	rng := rand.New(rand.NewSource(11))
	for name, ex := range map[string]*Extractor{
		"gazetteer": NewExtractor(gen.Gaz),
		"fakeGeo":   NewExtractor(fakeGeo{}),
		"nilGeo":    NewExtractor(nil),
	} {
		profs := make([]*Profile, len(recs))
		for i, r := range recs {
			profs[i] = ex.Profile(r)
		}
		var ev PairEval // one evaluator for every pair: slots go stale
		present, missing := 0, 0
		for i, ra := range recs {
			for j, rb := range recs {
				want := ex.Extract(ra, rb)
				ev.Reset(ex, profs[i], profs[j])
				var asked uint64
				for _, id := range rng.Perm(NumFeatures)[:1+rng.Intn(NumFeatures)] {
					if got := ev.At(id); got != want[id] {
						t.Fatalf("%s: records %d,%d: At(%d) (%s) = %+v, Extract has %+v", name, i, j, id, Defs()[id].Name, got, want[id])
					}
					asked |= 1 << id
					if ev.Evaluated() != asked {
						t.Fatalf("%s: records %d,%d: evaluated set %048b after asking for %048b", name, i, j, ev.Evaluated(), asked)
					}
					if want[id].Present {
						present++
					} else {
						missing++
						if want[id] != (Value{}) {
							t.Fatalf("Extract left %+v in missing feature %d", want[id], id)
						}
					}
				}
			}
		}
		if present == 0 || missing == 0 {
			t.Errorf("%s: fixture read %d present and %d missing features, want both", name, present, missing)
		}
	}
}

// TestPairEvalComputesOnce: a second At for the same id is answered from
// the evaluator's memo — the similarity kernels (counted through a
// PairMemo's lookups) and the Geo (counted directly) are not asked again
// — and Reset forgets it.
func TestPairEvalComputesOnce(t *testing.T) {
	geoCalls := 0
	ex := NewExtractor(countingGeo{&geoCalls})
	ex.Memo = NewPairMemo(0)
	a, b := allocPair()
	pa, pb := ex.Profile(a), ex.Profile(b)
	work := func() int64 {
		ms := ex.Memo.Stats()
		return ms.Hits + ms.Misses + int64(geoCalls)
	}

	var ev PairEval
	ev.Reset(ex, pa, pb)
	for _, id := range []int{idNameDist, idNameJW + 1, idGeoDist} {
		before := work()
		first := ev.At(id)
		once := work()
		if !first.Present || once == before {
			t.Fatalf("feature %d: %+v after %d kernel or geo calls, want a computed value", id, first, once-before)
		}
		if again := ev.At(id); again != first || work() != once {
			t.Errorf("feature %d: second At returned %+v after %d more calls, want %+v from the memo", id, again, work()-once, first)
		}
		ev.Reset(ex, pa, pb)
		if ev.Evaluated() != 0 {
			t.Fatalf("Reset left %b evaluated", ev.Evaluated())
		}
		before = work()
		if ev.At(id); work() == before {
			t.Errorf("feature %d: At after Reset did no work", id)
		}
	}
}
