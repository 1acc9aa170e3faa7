package similarity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gazetteer"
	"repro/internal/record"
)

func randWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(10)
	b := make([]rune, n)
	for i := range b {
		b[i] = rune('a' + rng.Intn(6))
	}
	return string(b)
}

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444},
		{"DIXON", "DICKSONX", 0.766667},
		{"JELLYFISH", "SMELLYFISH", 0.896296},
	}
	for _, c := range cases {
		if got := jaro(c.a, c.b); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Jaro(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.961111) > 1e-5 {
		t.Errorf("JaroWinkler(MARTHA,MARHTA) = %v", got)
	}
	if got := JaroWinkler("Bella", "Della"); got <= 0.8 || got >= 1 {
		t.Errorf("JaroWinkler(Bella,Della) = %v, want in (0.8,1)", got)
	}
}

func TestStringSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randWord(rng), randWord(rng)
		for _, fn := range []func(string, string) float64{jaro, JaroWinkler} {
			s := fn(a, b)
			if s < 0 || s > 1 {
				return false
			}
			if math.Abs(fn(a, b)-fn(b, a)) > 1e-12 {
				return false
			}
			if fn(a, a) != 1 {
				return false
			}
		}
		in := NewInterner()
		ga, gb := QGramIDs(in, a, 2), QGramIDs(in, b, 2)
		q := JaccardSortedIDs(ga, gb)
		if q < 0 || q > 1 || JaccardSortedIDs(ga, ga) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStringEdges(t *testing.T) {
	if jaro("", "") != 1 || JaroWinkler("", "") != 1 {
		t.Error("empty-empty should be 1")
	}
	if jaro("", "abc") != 0 || jaro("abc", "") != 0 {
		t.Error("empty vs non-empty should be 0")
	}
}

// TestJaccardIntSets pins Jaccard over integer ID sets, which the
// sorted-ID kernel computes for interned q-grams.
func TestJaccardIntSets(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 1},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 0.5},
		{[]uint32{1, 2}, []uint32{1, 2}, 1},
		{[]uint32{1}, []uint32{2}, 0},
	}
	for _, c := range cases {
		if got := JaccardSortedIDs(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JaccardSortedIDs(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestQGramsPadding(t *testing.T) {
	in := NewInterner()
	var got []string
	for _, id := range QGramIDs(in, "ab", 2) {
		got = append(got, in.strs[id])
	}
	if slices.Sort(got); !slices.Equal(got, []string{"#a", "ab", "b#"}) {
		t.Errorf("QGramIDs(ab,2) holds %q, want #a, ab and b#", got)
	}
}

func TestDateDist(t *testing.T) {
	if d, ok := DateDist("1920", "1936"); !ok || d != 16 {
		t.Errorf("DateDist(1920,1936) = %v, %v", d, ok)
	}
	if _, ok := DateDist("19x0", "1936"); ok {
		t.Error("unparseable date must fail")
	}
}

func TestItemSimEq1(t *testing.T) {
	gaz := gazetteer.Builtin(0)
	s := ItemSim{Geo: gaz}
	item := func(ty record.ItemType, v string) record.Item { return record.Item{Type: ty, Value: v} }

	// Different types are dissimilar.
	if got := s.Compare(item(record.FirstName, "Guido"), item(record.LastName, "Guido")); got != 0 {
		t.Errorf("cross-type sim = %v", got)
	}
	// Names use Jaro-Winkler.
	if got := s.Compare(item(record.FirstName, "Guido"), item(record.FirstName, "Guido")); got != 1 {
		t.Errorf("same-name sim = %v", got)
	}
	// Years: 1 - diff/50.
	if got := s.Compare(item(record.BirthYear, "1920"), item(record.BirthYear, "1930")); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("year sim = %v, want 0.8", got)
	}
	// Months: 1 - diff/12.
	if got := s.Compare(item(record.BirthMonth, "1"), item(record.BirthMonth, "7")); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("month sim = %v, want 0.5", got)
	}
	// Days: 1 - diff/31.
	if got := s.Compare(item(record.BirthDay, "1"), item(record.BirthDay, "32")); math.Abs(got-0) > 1e-12 {
		t.Errorf("day sim = %v, want 0", got)
	}
	// Geo: max(0, 1 - km/100) over the catalogue coordinates of cities.
	for _, c := range [][2]string{{"Torino", "Moncalieri"}, {"Torino", "Warszawa"}} {
		a, okA := gaz.Lookup(c[0])
		b, okB := gaz.Lookup(c[1])
		want := math.Max(0, 1-gazetteer.Haversine(a.Lat, a.Lon, b.Lat, b.Lon)/FsimGeoRangeKm)
		if got := s.Compare(item(record.BirthCity, c[0]), item(record.BirthCity, c[1])); !okA || !okB || got != want {
			t.Errorf("geo sim %s–%s = %v, want %v", c[0], c[1], got, want)
		}
	}
	// Unknown city falls back to exact match.
	if got := s.Compare(item(record.BirthCity, "unknown"), item(record.BirthCity, "unknown")); got != 1 {
		t.Errorf("unknown-city exact fallback = %v", got)
	}
	// Non-city place parts use exact match.
	if got := s.Compare(item(record.BirthCountry, "Italy"), item(record.BirthCountry, "Italy")); got != 1 {
		t.Errorf("country exact = %v", got)
	}
	// Unparseable years score 0.
	if got := s.Compare(item(record.BirthYear, "abc"), item(record.BirthYear, "1930")); got != 0 {
		t.Errorf("bad year sim = %v", got)
	}
	// Gender codes exact.
	if got := s.Compare(item(record.Gender, "0"), item(record.Gender, "1")); got != 0 {
		t.Errorf("gender mismatch sim = %v", got)
	}
}

func TestItemSimNilGeoFallsBack(t *testing.T) {
	s := ItemSim{}
	a := record.Item{Type: record.BirthCity, Value: "Torino"}
	b := record.Item{Type: record.BirthCity, Value: "Torino"}
	if got := s.Compare(a, b); got != 1 {
		t.Errorf("nil-geo same city = %v", got)
	}
}

func TestItemSimRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := []record.ItemType{record.FirstName, record.BirthYear, record.BirthMonth, record.BirthDay, record.BirthCity, record.Gender}
		ty := types[rng.Intn(len(types))]
		a := record.Item{Type: ty, Value: randWord(rng)}
		b := record.Item{Type: ty, Value: randWord(rng)}
		// A catalogue of both values, up to about 300 km apart.
		s := ItemSim{Geo: gazetteer.New([]gazetteer.Place{
			{City: a.Value, County: "c", Region: "r", Country: "k", Lat: 45, Lon: 7},
			{City: b.Value, County: "c", Region: "r", Country: "k", Lat: 45 + rng.Float64()*2.7, Lon: 7},
		})}
		got := s.Compare(a, b)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
