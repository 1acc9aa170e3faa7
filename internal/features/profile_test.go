package features

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

// profileOf builds r's profile the way the program does: through
// ProfileCache.Build, over a one-record collection.
func profileOf(ex *Extractor, r *record.Record) *Profile {
	coll, _ := record.NewCollection([]*record.Record{r}) // one record: no duplicate BookID
	return NewProfileCache(ex).Build(coll, 1)[0]
}

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
// Extract over 1k random pairs of generated records, with the generator's
// gazetteer: the profiled vector must be bit-identical.
func TestExtractProfiledGoldenEquality(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 300
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(gen.Gaz)
	cache := NewProfileCache(ex)
	cache.Build(gen.Collection, 2)
	records := gen.Collection.Records
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a, b := rng.Intn(len(records)), rng.Intn(len(records))
		want := ex.Extract(records[a], records[b])
		got := ex.ExtractProfiled(cache.Get(a), cache.Get(b))
		assertVectorsEqual(t, "gazetteer", want, got)
	}
	if cache.Len() != gen.Collection.Len() {
		t.Errorf("cache holds %d profiles for %d records", cache.Len(), gen.Collection.Len())
	}
}

// valueTableRecords are records built to stress a builder's value table:
// one surname in three cases and one non-ASCII given name in two, each
// repeated across records, a city the gazetteer resolves next to one it
// cannot, and the same values under different name attributes.
func valueTableRecords(city string) []*record.Record {
	var out []*record.Record
	for i, v := range []struct{ first, last, mother, born string }{
		{"Łucja", "COHEN", "Cohen", city},
		{"ŁUCJA", "Cohen", "İpek", "Atlantis"},
		{"łucja", "cohen", "COHEN", city},
		{"Lucja", "Cohn", "cohen", "Atlantis"},
		{"ŁUCJA", "COHEN", "ipek", "ATLANTIS"},
	} {
		r := &record.Record{BookID: int64(i + 1), Source: "list:9"}
		r.Add(record.FirstName, v.first)
		r.Add(record.LastName, v.last)
		r.Add(record.LastName, "Cohen")
		r.Add(record.MotherName, v.mother)
		r.Add(record.BirthCity, v.born)
		r.Add(record.PermCity, city)
		out = append(out, r)
	}
	return out
}

// TestProfileCacheBuild checks the parallel Build path returns profiles
// aligned with the collection and keeps them for Get, and that the
// builders' value tables change nothing: over records whose values repeat
// in different case, in non-ASCII and with an unresolvable city, profiles
// built in bulk and plain Extract agree bit for bit, and the gram slices
// profiles share are capped and never written.
func TestProfileCacheBuild(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 80
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	city := ""
	for _, r := range gen.Collection.Records {
		if c, ok := r.First(record.BirthCity); ok {
			if _, _, known := gen.Gaz.ResolveCoord(c); known {
				city = c
				break
			}
		}
	}
	tricky := valueTableRecords(city)
	coll, err := record.NewCollection(append(tricky, gen.Collection.Records...))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ex := NewExtractor(gen.Gaz)
		cache := NewProfileCache(ex)
		profs := cache.Build(coll, workers)
		if len(profs) != coll.Len() || cache.Len() != coll.Len() {
			t.Fatalf("workers=%d: Build returned %d profiles, cache holds %d, want %d", workers, len(profs), cache.Len(), coll.Len())
		}
		for i := range coll.Records {
			if cache.Get(i) != profs[i] {
				t.Fatalf("workers=%d: Get(%d) did not return the built profile", workers, i)
			}
		}
		if profs[0].resolved != 1<<record.Birth|1<<record.Permanent || profs[1].resolved != 1<<record.Permanent {
			t.Fatalf("fixture: %q should resolve and Atlantis should not: %08b %08b", city, profs[0].resolved, profs[1].resolved)
		}

		var shared, before [][]uint32
		for _, p := range profs {
			for _, v := range p.names {
				if len(v.grams) != cap(v.grams) {
					t.Fatalf("workers=%d: gram slice of %q has len %d, cap %d", workers, v.lower, len(v.grams), cap(v.grams))
				}
				shared, before = append(shared, v.grams), append(before, slices.Clone(v.grams))
			}
		}
		if a, b := profs[0].group(1)[0], profs[4].group(1)[0]; workers == 1 && &a.grams[0] != &b.grams[0] {
			t.Errorf("one builder grammed %q twice", a.lower)
		}

		vec := make(Vector, NumFeatures)
		for i := range tricky {
			for j, other := range coll.Records[:len(tricky)+40] {
				want := ex.Extract(tricky[i], other)
				ex.ExtractProfiledInto(vec, profs[i], profs[j])
				assertVectorsEqual(t, "Build", want, vec)
			}
		}
		for k := range shared {
			if !slices.Equal(shared[k], before[k]) {
				t.Fatalf("workers=%d: extraction wrote to a shared gram slice", workers)
			}
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
	pa, pb := profileOf(ex, a), profileOf(ex, b)
	if len(pa.names) != 4 {
		t.Fatalf("profile keeps %d name values, want 4 distinct (john, harris, foa, łucja)", len(pa.names))
	}
	groups := 0
	for i := range nameAttrs {
		g := pa.group(i)
		groups += len(g)
		for k := 1; k < len(g); k++ {
			if g[k-1].id >= g[k].id {
				t.Fatalf("%s values not sorted by ID: %+v", nameAttrs[i].stem, g)
			}
		}
	}
	if len(pa.group(0)) != 2 || groups != len(pa.names) {
		t.Fatalf("groups do not partition the name values: ends %v over %+v", pa.ends, pa.names)
	}
	assertVectorsEqual(t, "repeats", ex.Extract(a, b), ex.ExtractProfiled(pa, pb))
	assertVectorsEqual(t, "swapped", ex.Extract(b, a), ex.ExtractProfiled(pb, pa))
}

// modelFeatures are the nine features a model trained on Italy tests
// (FNdist, LNdist, FFNdist, FNjw, B3dist, sameDCounty and three place
// distances): the set a scoring run's restricted extractor profiles.
func modelFeatures() []int {
	idx := IndexByName()
	var ids []int
	for _, name := range []string{"FNdist", "LNdist", "FFNdist", "FNjw", "B3dist", "sameDCounty", "BPGeoDist", "WPGeoDist", "PPGeoDist"} {
		ids = append(ids, idx[name])
	}
	return ids
}

// mustPanicNaming runs f and requires it to panic with a message that
// names the feature.
func mustPanicNaming(t *testing.T, feature string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, feature+" (feature ") {
			t.Errorf("asking for %s: panic %q, want one naming it", feature, msg)
		}
	}()
	f()
}

// TestRestrictedExtractorRefusesUnprofiled: an extractor built for a
// model's features profiles only their inputs — no unread name attribute,
// no full birth date, no geocoding of an unread place type — answers
// every feature of its set exactly as Extract does, and panics, naming the
// feature, when asked for any other: through PairEval.At or through the
// full-vector ExtractProfiledInto. A missing answer would be read as
// "attribute absent" and score silently wrong.
func TestRestrictedExtractorRefusesUnprofiled(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 60
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := modelFeatures()
	ex := NewExtractorFor(gen.Gaz, ids)
	profs := NewProfileCache(ex).Build(gen.Collection, 2)
	var set uint64
	for _, id := range ids {
		set |= 1 << id
	}
	spouse := slices.IndexFunc(nameAttrs[:], func(na nameAttr) bool { return na.t == record.SpouseName })
	unread := func(p *Profile) int {
		n := len(p.group(spouse)) + int(p.resolved>>record.Death&1)
		if p.hasDOB {
			n++
		}
		return n
	}
	fullUnread := 0
	for i, p := range NewProfileCache(NewExtractor(gen.Gaz)).Build(gen.Collection, 1) {
		fullUnread += unread(p)
		if n := unread(profs[i]); n != 0 {
			t.Fatalf("record %d: profile holds %d unread inputs (DOB, spouse names, death city)", i, n)
		}
	}
	if fullUnread == 0 {
		t.Fatal("fixture: no record has a full birth date, a spouse name or a resolved death city")
	}

	recs := gen.Collection.Records
	defs := Defs()
	var ev PairEval
	for i := 0; i+1 < len(recs); i += 7 {
		want := NewExtractor(gen.Gaz).Extract(recs[i], recs[i+1])
		ev.Reset(ex, profs[i], profs[i+1])
		for id := range defs {
			if set&(1<<id) != 0 {
				if got := ev.At(id); got != want[id] {
					t.Fatalf("pair %d: %s = %+v, Extract says %+v", i, defs[id].Name, got, want[id])
				}
				continue
			}
			mustPanicNaming(t, defs[id].Name, func() { ev.At(id) })
		}
		if ev.Evaluated() != set {
			t.Fatalf("pair %d: evaluated %048b, the set is %048b", i, ev.Evaluated(), set)
		}
	}
	mustPanicNaming(t, "sameFN", func() { ex.ExtractProfiledInto(make(Vector, NumFeatures), profs[0], profs[1]) })
	mustPanicNaming(t, "sameFN", func() { ex.ExtractProfiled(profs[0], profs[1]) })
}

// TestProfileFootprint bounds what a built profile costs to keep: the
// scoring stage holds one per record for the Resolution's lifetime, next
// to blocking's working set, so the live bytes decide whether profiled
// scoring raises a run's peak RSS. Everything Build leaves reachable is
// counted — slab, arenas, the profile slice, the interner — for a full
// extractor and for one restricted to a model's features.
func TestProfileFootprint(t *testing.T) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ex   *Extractor
	}{{"full", NewExtractor(gen.Gaz)}, {"restricted", NewExtractorFor(gen.Gaz, modelFeatures())}} {
		name, cache := tc.name, NewProfileCache(tc.ex)
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
		t.Logf("%s, %d records: %.0f B and %.2f heap objects per record", name, gen.Collection.Len(), bytes, objects)
		if bytes > 640 || objects > 2 {
			t.Errorf("%s: a profile costs %.0f B and %.2f heap objects per record, want <= 640 B and <= 2", name, bytes, objects)
		}
	}
}
