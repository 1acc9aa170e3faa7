package features

import (
	"math/bits"
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
	cache.Build(gen.Collection, 1)
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

// TestProfileCacheBuild checks that Build returns profiles aligned with
// the collection and keeps them for Get, and that the value table changes
// nothing: over records whose values repeat in different case, in
// non-ASCII and with an unresolvable city, profiles built in bulk and
// plain Extract agree bit for bit. A build derives each distinct lowered
// value once, a second Build over the same extractor derives none, and
// the gram slices the extractor's value table shares among profiles are
// capped and never written.
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
	lowered := make(map[string]bool)
	for _, r := range coll.Records {
		for _, it := range r.Items {
			if slices.ContainsFunc(nameAttrs[:], func(na nameAttr) bool { return na.t == it.Type }) {
				lowered[strings.ToLower(it.Value)] = true
			}
		}
	}

	ex := NewExtractor(gen.Gaz)
	cache := NewProfileCache(ex)
	profs := cache.Build(coll, 1)
	if len(profs) != coll.Len() || cache.Len() != coll.Len() {
		t.Fatalf("Build returned %d profiles, cache holds %d, want %d", len(profs), cache.Len(), coll.Len())
	}
	for i := range coll.Records {
		if cache.Get(i) != profs[i] {
			t.Fatalf("Get(%d) did not return the built profile", i)
		}
	}
	if profs[0].resolved != 1<<record.Birth|1<<record.Permanent || profs[1].resolved != 1<<record.Permanent {
		t.Fatalf("fixture: %q should resolve and Atlantis should not: %08b %08b", city, profs[0].resolved, profs[1].resolved)
	}
	if a, b := profs[0].group(1), profs[4].group(1); len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("COHEN and Cohen should be one value under one ID: %v and %v", a, b)
	}

	vals := ex.values
	for _, p := range profs {
		for _, id := range p.names {
			if int(id) >= len(vals) || vals[id].grams == nil {
				t.Fatalf("name ID %d has no value table entry", id)
			}
		}
	}
	var shared, before [][]uint32
	for _, v := range vals {
		if v.grams == nil {
			continue
		}
		if len(v.grams) != cap(v.grams) {
			t.Fatalf("gram slice of %q has len %d, cap %d", v.lower, len(v.grams), cap(v.grams))
		}
		shared, before = append(shared, v.grams), append(before, slices.Clone(v.grams))
	}
	if len(shared) != len(lowered) {
		t.Errorf("the build grammed %d values for %d distinct lowered names", len(shared), len(lowered))
	}
	interned := ex.InternedStrings()
	NewProfileCache(ex).Build(coll, 1)
	if n := ex.InternedStrings(); n != interned || len(ex.values) != len(vals) {
		t.Fatalf("a second Build interned %d strings and grew the table %d → %d", n-interned, len(vals), len(ex.values))
	}
	for id, v := range ex.values {
		if v.grams != nil && &v.grams[0] != &vals[id].grams[0] {
			t.Fatalf("a second Build derived %q again", v.lower)
		}
	}

	for i := range tricky {
		for j, other := range coll.Records[:len(tricky)+40] {
			assertVectorsEqual(t, "Build", ex.Extract(tricky[i], other), ex.ExtractProfiled(profs[i], profs[j]))
		}
	}
	for k := range shared {
		if !slices.Equal(shared[k], before[k]) {
			t.Fatal("extraction wrote to a shared gram slice")
		}
	}
}

// TestProfileNameValues pins the compact name representation: a profile
// keeps each attribute's lowered values as distinct interned IDs in
// ascending order, each naming its lowered string in the value table, and
// — since the name features are a set comparison and a max over the value
// cross product — repeats and order change nothing Extract sees.
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
			if g[k-1] >= g[k] {
				t.Fatalf("%s IDs not strictly ascending: %v", nameAttrs[i].stem, g)
			}
		}
	}
	if len(pa.group(0)) != 2 || groups != len(pa.names) {
		t.Fatalf("groups do not partition the name values: ends %v over %v", pa.ends, pa.names)
	}
	var lowered []string
	for _, id := range pa.group(0) {
		lowered = append(lowered, ex.values[id].lower)
	}
	if slices.Sort(lowered); !slices.Equal(lowered, []string{"harris", "john"}) {
		t.Fatalf("FN IDs name %q in the value table, want harris and john", lowered)
	}
	assertVectorsEqual(t, "repeats", ex.Extract(a, b), ex.ExtractProfiled(pa, pb))
	assertVectorsEqual(t, "swapped", ex.Extract(b, a), ex.ExtractProfiled(pb, pa))
}

// modelFeatures are the nine features a model trained on Italy tests
// (FNdist, LNdist, FFNdist, FNjw, B3dist, sameDCounty and three place
// distances): the set a scoring run's restricted extractor profiles.
func modelFeatures() []int {
	idx := indexByName()
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
// full-vector ExtractProfiled. A missing answer would be read as
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
	profs := NewProfileCache(ex).Build(gen.Collection, 1)
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
	mustPanicNaming(t, "sameFN", func() { ex.ExtractProfiled(profs[0], profs[1]) })
}

// TestRestrictedProfileKeepsReadFirsts: an extractor built for a set of
// features keeps, in each profile, the first values of exactly the item
// types its samePlace, sameGender and sameProfession features compare —
// DeathCounty alone for modelFeatures — where a full extractor keeps all
// 18; and over the tricky records (one of them with 41 name items) and
// generated ones, PairEval.At still equals Extract on every profiled
// feature, and the long record keeps every distinct name value.
func TestRestrictedProfileKeepsReadFirsts(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 60
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tricky := trickyRecords("Torino")
	for i, r := range tricky {
		r.BookID = int64(i + 1) // generated BookIDs start at 1,000,000
	}
	recs := append(tricky, gen.Collection.Records[:60]...)
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	long := slices.IndexFunc(tricky, func(r *record.Record) bool { return len(r.Values(record.FirstName)) > 32 })
	if long < 0 {
		t.Fatal("fixture: no tricky record has more than 32 first names")
	}

	idx := indexByName()
	var all []int
	for id := range NumFeatures {
		all = append(all, id)
	}
	oracle := NewExtractor(gen.Gaz)
	for _, tc := range []struct {
		name   string
		ids    []int
		firsts uint32
	}{
		{"model", modelFeatures(), 1 << record.DeathCounty},
		{"demographic", []int{idx["sameGender"], idx["sameProfession"], idx["sameBCity"], idx["FNjw"]},
			1<<record.Gender | 1<<record.Profession | 1<<record.BirthCity},
		{"full", all, (1<<(record.NumPlaceTypes*record.NumPlaceParts)-1)<<record.BirthCity | 1<<record.Gender | 1<<record.Profession},
	} {
		ex := NewExtractorFor(gen.Gaz, tc.ids)
		profs := NewProfileCache(ex).Build(coll, 1)
		for i, r := range recs {
			var seen uint32
			for _, it := range r.Items {
				seen |= 1 << it.Type
			}
			p := profs[i]
			if want := seen & tc.firsts; p.has != want || len(p.firsts) != bits.OnesCount32(want) {
				t.Fatalf("%s: record %d keeps first values %028b (%d), want %028b", tc.name, i, p.has, len(p.firsts), want)
			}
		}
		if got, want := len(profs[long].group(0)), 36; got != want {
			t.Errorf("%s: the long record keeps %d distinct first names, want %d", tc.name, got, want)
		}

		var ev PairEval
		for i := range tricky {
			for j, other := range recs {
				want := oracle.Extract(recs[i], other)
				ev.Reset(ex, profs[i], profs[j])
				for _, id := range tc.ids {
					if got := ev.At(id); got != want[id] {
						t.Fatalf("%s: records %d,%d: %s = %+v, Extract says %+v", tc.name, i, j, Defs()[id].Name, got, want[id])
					}
				}
			}
		}
	}
}

// TestSequentialBuildsShareValueTable: a later Build over the same
// extractor grows its value table without disturbing the IDs an earlier
// Build handed out, so profiles from every Build — the earlier one, and
// later ones over another collection or an overlapping one — still
// answer as Extract does, through ExtractProfiled and through PairEval.
func TestSequentialBuildsShareValueTable(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 120
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Collection.Records
	half := len(recs) / 2
	first, err := record.NewCollection(recs[:half])
	if err != nil {
		t.Fatal(err)
	}
	second, err := record.NewCollection(recs[half:])
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(gen.Gaz)
	early := NewProfileCache(ex).Build(first, 1)
	later := NewProfileCache(ex).Build(second, 1)
	whole := NewProfileCache(ex).Build(gen.Collection, 1)

	var ev PairEval
	vec := make(Vector, NumFeatures)
	for i := 0; i+1 < len(recs); i++ {
		want := ex.Extract(recs[i], recs[i+1])
		assertVectorsEqual(t, "whole build", want, ex.ExtractProfiled(whole[i], whole[i+1]))
		if i+1 < half {
			ev.Reset(ex, early[i], early[i+1])
			for id := range vec {
				vec[id] = ev.At(id)
			}
			assertVectorsEqual(t, "early build", want, vec)
		}
		if i >= half {
			assertVectorsEqual(t, "second half", want, ex.ExtractProfiled(later[i-half], later[i+1-half]))
		}
	}
}

// TestProfileFootprint bounds what a built profile costs to keep: the
// scoring stage holds one per record for the Resolution's lifetime, next
// to blocking's working set, so the live bytes decide whether profiled
// scoring raises a run's peak RSS. Everything Build leaves reachable is
// counted — slab, arenas, the profile slice, the interner, the value
// table — for a full extractor and for one restricted to a model's
// features, each against its own bound (a restricted profile keeps one
// first value where a full one keeps nine, and both hold 4-byte name IDs).
func TestProfileFootprint(t *testing.T) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		ex       *Extractor
		maxBytes float64
	}{
		{"full", NewExtractor(gen.Gaz), 520},
		{"restricted", NewExtractorFor(gen.Gaz, modelFeatures()), 320},
	} {
		name, cache := tc.name, NewProfileCache(tc.ex)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		profs := cache.Build(gen.Collection, 1)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(gen)
		runtime.KeepAlive(cache)
		runtime.KeepAlive(profs)

		n := float64(gen.Collection.Len())
		bytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
		t.Logf("%s, %d records: %.0f B and %.2f heap objects per record", name, gen.Collection.Len(), bytes, objects)
		if bytes > tc.maxBytes || objects > 2 {
			t.Errorf("%s: a profile costs %.0f B and %.2f heap objects per record, want <= %.0f B and <= 2", name, bytes, objects, tc.maxBytes)
		}
	}
}
