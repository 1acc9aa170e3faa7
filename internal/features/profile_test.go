package features

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

// assertVectorsEqual requires exact — bit-identical, not approximate —
// equality between the plain and profiled extraction paths.
func assertVectorsEqual(t *testing.T, tag string, want, got Vector) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: vector lengths differ: %d vs %d", tag, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: feature %d (%s) differs: Extract=%+v ExtractProfiled=%+v",
				tag, i, Defs()[i].Name, want[i], got[i])
		}
	}
}

// TestExtractProfiledGoldenEquality compares ExtractProfiled against
// Extract over 1k random pairs of generated records, with a gazetteer Geo
// (the CoordResolver fast path): the profiled vector must be bit-identical.
func TestExtractProfiledGoldenEquality(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 300
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(gen.Gaz)
	cache := NewProfileCache(ex)
	records := gen.Collection.Records
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := records[rng.Intn(len(records))]
		b := records[rng.Intn(len(records))]
		want := ex.Extract(a, b)
		got := ex.ExtractProfiled(cache.Get(a), cache.Get(b))
		assertVectorsEqual(t, "gazetteer", want, got)
	}
	if cache.Len() == 0 || cache.Len() > gen.Collection.Len() {
		t.Errorf("cache holds %d profiles for %d records", cache.Len(), gen.Collection.Len())
	}
}

// TestExtractProfiledFallbackGeo exercises the non-CoordResolver Geo
// fallback (distances resolved through the interface at pair time) and the
// nil-Geo case.
func TestExtractProfiledFallbackGeo(t *testing.T) {
	a := rec(func(r *record.Record) {
		r.Source = "list:1"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthMonth, "11")
		r.Add(record.BirthDay, "18")
		r.Add(record.BirthCity, "Torino")
		r.Add(record.Gender, "0")
		r.Add(record.Profession, "merchant")
	})
	b := rec(func(r *record.Record) {
		r.Source = "list:2"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foy")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthCity, "Moncalieri")
		r.Add(record.Gender, "0")
	})
	for _, tc := range []struct {
		name string
		ex   *Extractor
	}{
		{"fakeGeo", NewExtractor(fakeGeo{})},
		{"nilGeo", NewExtractor(nil)},
	} {
		want := tc.ex.Extract(a, b)
		got := tc.ex.ExtractProfiled(tc.ex.Profile(a), tc.ex.Profile(b))
		assertVectorsEqual(t, tc.name, want, got)
	}
}

// TestProfileCacheBuild checks the parallel Build path returns profiles
// aligned with the collection and memoizes them for Get.
func TestProfileCacheBuild(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 80
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(gen.Gaz)
	cache := NewProfileCache(ex)
	profs := cache.Build(gen.Collection, 4)
	if len(profs) != gen.Collection.Len() {
		t.Fatalf("Build returned %d profiles for %d records", len(profs), gen.Collection.Len())
	}
	if cache.Len() != gen.Collection.Len() {
		t.Fatalf("cache holds %d profiles, want %d", cache.Len(), gen.Collection.Len())
	}
	for i, r := range gen.Collection.Records {
		if cache.Get(r) != profs[i] {
			t.Fatalf("Get(%d) did not return the built profile", r.BookID)
		}
	}
}

// TestProfileNameValues pins the compact name representation: a profile
// keeps each attribute's lowered values distinct and sorted by interned
// ID, and — since the name features are a set comparison and a max over
// the value cross product — repeats and order change nothing Extract sees.
func TestProfileNameValues(t *testing.T) {
	a := rec(func(r *record.Record) {
		for _, v := range []string{"John", "JOHN", "Harris", "john"} {
			r.Add(record.FirstName, v)
		}
		r.Add(record.LastName, "Foa")
		r.Add(record.MotherName, "ŁUCJA")
	})
	b := rec(func(r *record.Record) {
		r.Add(record.FirstName, "harris")
		r.Add(record.FirstName, "Jon")
		r.Add(record.LastName, "FOA")
		r.Add(record.MotherName, "İpek")
		r.Add(record.MotherName, "Łucja")
	})
	ex := NewExtractor(nil)
	pa, pb := ex.Profile(a), ex.Profile(b)
	if len(pa.names) != 4 {
		t.Fatalf("profile keeps %d name values, want 4 distinct (john, harris, foa, łucja)", len(pa.names))
	}
	for i := 1; i < len(pa.names); i++ {
		x, y := pa.names[i-1], pa.names[i]
		if x.attr > y.attr || x.attr == y.attr && x.id >= y.id {
			t.Fatalf("name values not grouped by attribute and sorted by ID: %+v", pa.names)
		}
	}
	assertVectorsEqual(t, "repeats", ex.Extract(a, b), ex.ExtractProfiled(pa, pb))
	assertVectorsEqual(t, "swapped", ex.Extract(b, a), ex.ExtractProfiled(pb, pa))
}

// TestProfileFootprint bounds what a built profile costs to keep: the
// scoring stage holds one per record for the Resolution's lifetime, next
// to blocking's working set, so the live bytes decide whether profiled
// scoring raises a run's peak RSS. Everything Build leaves reachable is
// counted — slab, arenas, the cache's map, the interner.
func TestProfileFootprint(t *testing.T) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewProfileCache(NewExtractor(gen.Gaz))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	profs := cache.Build(gen.Collection, 2)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(gen)
	runtime.KeepAlive(cache)
	runtime.KeepAlive(profs)

	n := float64(gen.Collection.Len())
	bytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	t.Logf("%d records: %.0f B and %.2f heap objects per record", gen.Collection.Len(), bytes, objects)
	if bytes > 800 || objects > 4 {
		t.Errorf("a profile costs %.0f B and %.2f heap objects per record, want <= 800 B and <= 4", bytes, objects)
	}
}
