package features

import (
	"math"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/record"
)

func TestDefsShape(t *testing.T) {
	defs := Defs()
	if len(defs) != 48 {
		t.Fatalf("the paper defines 48 features; got %d", len(defs))
	}
	byName := map[string]bool{}
	for i, d := range defs {
		if d.ID != i {
			t.Errorf("def %d has ID %d", i, d.ID)
		}
		if byName[d.Name] {
			t.Errorf("duplicate feature name %q", d.Name)
		}
		byName[d.Name] = true
		if d.Kind == Categorical && len(d.Levels) < 2 {
			t.Errorf("categorical %q has %d levels", d.Name, len(d.Levels))
		}
	}
	// Spot-check the paper's labels.
	for _, name := range []string{"sameFFN", "MFNdist", "FFNdist", "B3dist", "DPGeoDist", "sameSource", "LNdist", "SNdist", "MNdist"} {
		if !byName[name] {
			t.Errorf("feature %q missing", name)
		}
	}
	if NumFeatures != len(defs) {
		t.Errorf("NumFeatures = %d", NumFeatures)
	}
}

// twoCities is a catalogue of the two cities the hand-built fixtures name.
var twoCities = gazetteer.New([]gazetteer.Place{
	{City: "Torino", County: "Torino", Region: "Piemonte", Country: "Italy", Lat: 45.07, Lon: 7.69},
	{City: "Moncalieri", County: "Torino", Region: "Piemonte", Country: "Italy", Lat: 45.00, Lon: 7.68},
})

func rec(build func(*record.Record)) *record.Record {
	r := &record.Record{}
	build(r)
	return r
}

func TestSameNameTrinary(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()

	// {John, Harris} vs {John} -> partial (the paper's example).
	a := rec(func(r *record.Record) { r.Add(record.FirstName, "John"); r.Add(record.FirstName, "Harris") })
	b := rec(func(r *record.Record) { r.Add(record.FirstName, "John") })
	v := ex.Extract(a, b)
	if got := v[idx["sameFN"]]; !got.Present || got.Cat != SamePartial {
		t.Errorf("sameFN = %+v, want partial", got)
	}

	// Equal sets -> yes, case-insensitive.
	c := rec(func(r *record.Record) { r.Add(record.FirstName, "JOHN") })
	v = ex.Extract(b, c)
	if got := v[idx["sameFN"]]; got.Cat != SameYes {
		t.Errorf("sameFN equal sets = %+v", got)
	}

	// Disjoint -> no.
	d := rec(func(r *record.Record) { r.Add(record.FirstName, "Maria") })
	v = ex.Extract(b, d)
	if got := v[idx["sameFN"]]; got.Cat != SameNo {
		t.Errorf("sameFN disjoint = %+v", got)
	}
}

func TestMissingSemantics(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()
	a := rec(func(r *record.Record) { r.Add(record.FirstName, "Guido") })
	b := rec(func(r *record.Record) { r.Add(record.LastName, "Foa") })
	v := ex.Extract(a, b)
	present := 0
	for _, val := range v {
		if val.Present {
			present++
		}
	}
	if present != 0 {
		t.Errorf("no shared attributes but %d features present: %+v", present, v)
	}
	if v[idx["sameFN"]].Present || v[idx["LNdist"]].Present {
		t.Error("one-sided attributes must be missing")
	}
}

func TestNameDistancesMaxOverValues(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()
	a := rec(func(r *record.Record) {
		r.Add(record.FirstName, "Zzz")
		r.Add(record.FirstName, "Guido")
	})
	b := rec(func(r *record.Record) { r.Add(record.FirstName, "Guido") })
	v := ex.Extract(a, b)
	if got := v[idx["FNdist"]]; !got.Present || got.Num != 1 {
		t.Errorf("FNdist = %+v, want 1 (max over values)", got)
	}
	if got := v[idx["FNjw"]]; !got.Present || got.Num != 1 {
		t.Errorf("FNjw = %+v, want 1", got)
	}
}

func TestDateDistancesRaw(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()
	a := rec(func(r *record.Record) {
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthMonth, "11")
		r.Add(record.BirthDay, "18")
	})
	b := rec(func(r *record.Record) {
		r.Add(record.BirthYear, "1936")
		r.Add(record.BirthMonth, "8")
		r.Add(record.BirthDay, "2")
	})
	v := ex.Extract(a, b)
	if got := v[idx["B3dist"]]; got.Num != 16 {
		t.Errorf("B3dist = %+v, want 16", got)
	}
	if got := v[idx["B2dist"]]; got.Num != 3 {
		t.Errorf("B2dist = %+v, want 3", got)
	}
	if got := v[idx["B1dist"]]; got.Num != 16 {
		t.Errorf("B1dist = %+v, want 16", got)
	}
}

// TestGeoDistanceFeature: the profiled BPGeoDist of two catalogue cities
// is the Haversine of their catalogue coordinates; an unknown city or a
// nil gazetteer leaves it missing.
func TestGeoDistanceFeature(t *testing.T) {
	gaz := gazetteer.Builtin(0)
	geo := func(ex *Extractor, a, b string) Value {
		born := func(c string) *Profile {
			return profileOf(ex, rec(func(r *record.Record) { r.Add(record.BirthCity, c) }))
		}
		return ex.ExtractProfiled(born(a), born(b))[IndexByName()["BPGeoDist"]]
	}
	to, okT := gaz.Lookup("Torino")
	mo, okM := gaz.Lookup("Moncalieri")
	if !okT || !okM {
		t.Fatal("fixture: the built-in catalogue should hold Torino and Moncalieri")
	}
	if got, want := geo(NewExtractor(gaz), "Torino", "Moncalieri"), gazetteer.Haversine(to.Lat, to.Lon, mo.Lat, mo.Lon); !got.Present || got.Num != want {
		t.Errorf("BPGeoDist = %+v, want %v km", got, want)
	}
	if got := geo(NewExtractor(gaz), "Torino", "Unknown2"); got.Present {
		t.Errorf("unresolvable geo distance = %+v, want missing", got)
	}
	if got := geo(NewExtractor(nil), "Torino", "Moncalieri"); got.Present {
		t.Errorf("nil geo: BPGeoDist = %+v, want missing", got)
	}
}

func TestSourceGenderProfessionDOB(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()
	a := rec(func(r *record.Record) {
		r.Source = "list:1"
		r.Add(record.Gender, "0")
		r.Add(record.Profession, "tailor")
		r.Add(record.BirthDay, "2")
		r.Add(record.BirthMonth, "8")
		r.Add(record.BirthYear, "1936")
	})
	b := rec(func(r *record.Record) {
		r.Source = "list:1"
		r.Add(record.Gender, "0")
		r.Add(record.Profession, "Tailor")
		r.Add(record.BirthDay, "2")
		r.Add(record.BirthMonth, "8")
		r.Add(record.BirthYear, "1936")
	})
	v := ex.Extract(a, b)
	for _, name := range []string{"sameSource", "sameGender", "sameProfession", "sameDOB"} {
		if got := v[idx[name]]; !got.Present || got.Cat != True {
			t.Errorf("%s = %+v, want true", name, got)
		}
	}
	b.Source = "list:2"
	v = ex.Extract(a, b)
	if got := v[idx["sameSource"]]; got.Cat != False {
		t.Errorf("different sources: sameSource = %+v", got)
	}
	// Partial DOB -> sameDOB missing.
	c := rec(func(r *record.Record) { r.Add(record.BirthYear, "1936") })
	v = ex.Extract(a, c)
	if v[idx["sameDOB"]].Present {
		t.Error("sameDOB must be missing without full dates on both sides")
	}
}

func TestSamePlaceParts(t *testing.T) {
	ex := NewExtractor(twoCities)
	idx := IndexByName()
	a := rec(func(r *record.Record) {
		r.Add(record.BirthCity, "Torino")
		r.Add(record.BirthCountry, "Italy")
	})
	b := rec(func(r *record.Record) {
		r.Add(record.BirthCity, "Canischio")
		r.Add(record.BirthCountry, "Italy")
	})
	v := ex.Extract(a, b)
	if got := v[idx["sameBCity"]]; got.Cat != False {
		t.Errorf("sameBCity = %+v", got)
	}
	if got := v[idx["sameBCountry"]]; got.Cat != True {
		t.Errorf("sameBCountry = %+v", got)
	}
	if v[idx["sameBCounty"]].Present {
		t.Error("absent county must be missing")
	}
}

func TestExtractSymmetric(t *testing.T) {
	ex := NewExtractor(twoCities)
	a := rec(func(r *record.Record) {
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthCity, "Torino")
	})
	b := rec(func(r *record.Record) {
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foy")
		r.Add(record.BirthYear, "1936")
		r.Add(record.BirthCity, "Moncalieri")
	})
	ab, ba := ex.Extract(a, b), ex.Extract(b, a)
	for i := range ab {
		if ab[i].Present != ba[i].Present || math.Abs(ab[i].Num-ba[i].Num) > 1e-12 || ab[i].Cat != ba[i].Cat {
			t.Errorf("feature %d asymmetric: %+v vs %+v", i, ab[i], ba[i])
		}
	}
}
