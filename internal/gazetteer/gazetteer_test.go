package gazetteer

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinValidates(t *testing.T) {
	for _, towns := range []int{0, 5, 30} {
		g := Builtin(towns)
		if err := g.Validate(); err != nil {
			t.Errorf("Builtin(%d): %v", towns, err)
		}
		if g.Len() == 0 {
			t.Errorf("Builtin(%d) empty", towns)
		}
	}
}

func TestBuiltinDeterministic(t *testing.T) {
	a, b := Builtin(10), Builtin(10)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i, p := range a.places {
		q := b.places[i]
		if p.City != q.City || p.Lat != q.Lat || p.Lon != q.Lon {
			t.Fatalf("entry %d differs: %v vs %v", i, p, q)
		}
	}
}

func TestLookupVariants(t *testing.T) {
	g := Builtin(0)
	turin, ok := g.Lookup("Turin")
	if !ok {
		t.Fatal("Turin not found")
	}
	torino, ok := g.Lookup("Torino")
	if !ok {
		t.Fatal("Torino not found")
	}
	if turin.City != torino.City {
		t.Errorf("Turin and Torino resolve differently: %q vs %q", turin.City, torino.City)
	}
	if _, ok := g.Lookup("Atlantis"); ok {
		t.Error("unknown city resolved")
	}
	// Case-insensitive.
	if _, ok := g.Lookup("  warsaw "); !ok {
		t.Error("normalized lookup failed")
	}
}

func TestDistanceKnownCities(t *testing.T) {
	g := Builtin(0)
	km, ok := g.Distance("Torino", "Moncalieri")
	if !ok {
		t.Fatal("distance lookup failed")
	}
	// The paper quotes Turin-Moncalieri as ~9 km.
	if km < 4 || km > 15 {
		t.Errorf("Torino-Moncalieri = %.1f km, want ~9", km)
	}
	km2, ok := g.Distance("Warszawa", "Rhodes")
	if !ok || km2 < 1500 {
		t.Errorf("Warsaw-Rhodes = %.0f km, want >1500", km2)
	}
	if _, ok := g.Distance("Torino", "Nowhere"); ok {
		t.Error("distance to unknown city should fail")
	}
}

func TestHaversineProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		// Clamp into valid ranges.
		lat1 = math.Mod(math.Abs(lat1), 90)
		lat2 = math.Mod(math.Abs(lat2), 90)
		lon1 = math.Mod(math.Abs(lon1), 180)
		lon2 = math.Mod(math.Abs(lon2), 180)
		d := Haversine(lat1, lon1, lat2, lon2)
		rev := Haversine(lat2, lon2, lat1, lon1)
		self := Haversine(lat1, lon1, lat1, lon1)
		const maxEarth = 20037.6 // half circumference, km
		return d >= 0 && d <= maxEarth+1 && math.Abs(d-rev) < 1e-9 && self < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHaversineTriangleSampled(t *testing.T) {
	pts := [][2]float64{{45, 7}, {52, 21}, {36, 28}, {50, 30}, {48, 2}}
	for _, a := range pts {
		for _, b := range pts {
			for _, c := range pts {
				ab := Haversine(a[0], a[1], b[0], b[1])
				bc := Haversine(b[0], b[1], c[0], c[1])
				ac := Haversine(a[0], a[1], c[0], c[1])
				if ac > ab+bc+1e-6 {
					t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
				}
			}
		}
	}
}

func TestCommunityPlaces(t *testing.T) {
	g := Builtin(5)
	for c := 0; c < NumCommunities; c++ {
		ps := g.CommunityPlaces(Community(c))
		if len(ps) == 0 {
			t.Errorf("community %v has no places", Community(c))
		}
		for _, p := range ps {
			if isDeathSite(p.City) {
				t.Errorf("community %v contains death site %q", Community(c), p.City)
			}
		}
	}
}

func TestDeathSitesShared(t *testing.T) {
	sites := DeathSites()
	if len(sites) < 5 {
		t.Fatalf("only %d death sites", len(sites))
	}
	g := Builtin(0)
	for _, s := range sites {
		if _, ok := g.Lookup(s.City); !ok {
			t.Errorf("death site %q not in catalogue", s.City)
		}
	}
	// The returned slice is a copy.
	sites[0].City = "Mutated"
	if DeathSites()[0].City == "Mutated" {
		t.Error("DeathSites returns shared storage")
	}
}

func TestValidateCatchesBadEntries(t *testing.T) {
	bad := New([]Place{{City: "X", County: "", Region: "R", Country: "C"}})
	if err := bad.Validate(); err == nil {
		t.Error("empty county must fail validation")
	}
	bad2 := New([]Place{{City: "X", County: "Y", Region: "R", Country: "C", Lat: 100}})
	if err := bad2.Validate(); err == nil {
		t.Error("latitude 100 must fail validation")
	}
}

func TestTownExpansionGrowsCatalogue(t *testing.T) {
	small, big := Builtin(0), Builtin(20)
	if big.Len() <= small.Len() {
		t.Errorf("towns did not grow catalogue: %d vs %d", big.Len(), small.Len())
	}
	// Town names must be unique enough to resolve.
	for _, p := range big.places {
		got, ok := big.Lookup(p.City)
		if !ok {
			t.Fatalf("place %q not resolvable", p.City)
		}
		if got.Country != p.Country {
			// A name collision resolved to another country's entry; allowed
			// for variants but the base city should win its own name unless
			// claimed earlier.
			continue
		}
	}
}

// TestLookupAllocs: resolving an ASCII place name, known or not, padded
// or capitalized, allocates nothing — preprocessing looks up every
// report's places.
func TestLookupAllocs(t *testing.T) {
	g := Builtin(0)
	for _, name := range []string{"Turin", "torino", "  WARSAW ", "Atlantis"} {
		if allocs := testing.AllocsPerRun(100, func() { g.Lookup(name) }); allocs != 0 {
			t.Errorf("Lookup(%q) allocates %.1f times", name, allocs)
		}
	}
}

// FuzzLookupKey holds Lookup's stack-buffer key to Normalize: where a
// name takes it, it is Normalize's key byte for byte, and Lookup resolves
// every name — ASCII, non-ASCII, padded, over the buffer — to the entry
// Normalize's key names.
func FuzzLookupKey(f *testing.F) {
	g := Builtin(2)
	for _, p := range g.places[:20] {
		f.Add(p.City)
	}
	for _, n := range []string{"", " ", "TORINO", "  warsaw\t", "Atlantis", "Łódź", "ŁÓDŹ", "Kraków ", " Turin",
		"İzmir", "\xffTurin", strings.Repeat("a", 64), " " + strings.Repeat("B", 64) + " ", strings.Repeat("b", 65)} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, name string) {
		var buf [64]byte
		if key, ok := asciiKey(buf[:0], name); ok && string(key) != Normalize(name) {
			t.Fatalf("asciiKey(%q) = %q, Normalize gives %q", name, key, Normalize(name))
		}
		i, known := g.byName[Normalize(name)]
		p, ok := g.Lookup(name)
		if ok != known || (ok && !reflect.DeepEqual(p, g.places[i])) {
			t.Fatalf("Lookup(%q) = %v, %v; Normalize's key resolves %v", name, p.City, ok, known)
		}
	})
}
