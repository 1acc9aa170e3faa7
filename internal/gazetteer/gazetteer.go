// Package gazetteer provides the place substrate of the Names Project
// database: a hierarchical place catalogue (City -> County -> Region ->
// Country) with GPS coordinates, spelling variants, and great-circle
// distance. The paper's PlaceXGeoDistance features and the expert item
// similarity (Eq. 1) both resolve place values through a gazetteer.
//
// The built-in catalogue is synthetic but shaped like the six pre-Holocaust
// Jewish communities the paper's stratified sample draws from (Italy,
// Poland, Germany, Hungary, Greece/Rhodes, and the Soviet territories),
// with real anchor cities (Turin, Warsaw, ...) so distances are plausible.
package gazetteer

import (
	"math"
	"strings"
	"unicode/utf8"
)

// Place is one city entry with its full administrative hierarchy and
// coordinates.
type Place struct {
	City    string
	County  string
	Region  string
	Country string
	Lat     float64
	Lon     float64
	// Variants are alternative spellings/transliterations of the city
	// name ("Turin" vs "Torino"), all resolving to this place.
	Variants []string
}

// Gazetteer resolves place names to catalogue entries.
type Gazetteer struct {
	places []Place
	byName map[string]int // normalized city name or variant -> index
}

// New builds a gazetteer over the given places. Later entries do not
// displace earlier ones for conflicting names.
func New(places []Place) *Gazetteer {
	g := &Gazetteer{places: places, byName: make(map[string]int)}
	for i, p := range places {
		g.addName(p.City, i)
		for _, v := range p.Variants {
			g.addName(v, i)
		}
	}
	return g
}

func (g *Gazetteer) addName(name string, idx int) {
	key := Normalize(name)
	if _, taken := g.byName[key]; !taken {
		g.byName[key] = idx
	}
}

// Normalize lower-cases and trims a place name for lookup.
func Normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Lookup resolves a city name or variant to its place entry.
func (g *Gazetteer) Lookup(city string) (Place, bool) {
	// An ASCII name that fits is normalized into a stack buffer, which
	// the map lookup reads without allocating; others take Normalize.
	var buf [64]byte
	var i int
	var ok bool
	if key, ascii := asciiKey(buf[:0], city); ascii {
		i, ok = g.byName[string(key)]
	} else {
		i, ok = g.byName[Normalize(city)]
	}
	if !ok {
		return Place{}, false
	}
	return g.places[i], true
}

// asciiKey appends Normalize(name) to buf when name trims to ASCII that
// fits in buf's capacity, and reports whether it did: strings.ToLower
// lowercases ASCII exactly as this loop does.
func asciiKey(buf []byte, name string) ([]byte, bool) {
	name = strings.TrimSpace(name)
	if len(name) > cap(buf) {
		return nil, false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return nil, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf, true
}

// ResolveCoord resolves a city name or variant to its coordinates.
// Distance(a, b) is exactly Haversine over the two resolved pairs, so
// coordinates resolved once give the same kilometres bit for bit.
func (g *Gazetteer) ResolveCoord(city string) (lat, lon float64, ok bool) {
	p, ok := g.Lookup(city)
	if !ok {
		return 0, 0, false
	}
	return p.Lat, p.Lon, true
}

// Distance returns the great-circle distance in kilometres between the two
// named cities. ok is false when either name is unknown.
func (g *Gazetteer) Distance(cityA, cityB string) (km float64, ok bool) {
	a, okA := g.Lookup(cityA)
	b, okB := g.Lookup(cityB)
	if !okA || !okB {
		return 0, false
	}
	return Haversine(a.Lat, a.Lon, b.Lat, b.Lon), true
}

// earthRadiusKm is the mean Earth radius used by the haversine formula.
const earthRadiusKm = 6371.0

// Haversine returns the great-circle distance in kilometres between two
// WGS84 coordinates.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const deg = math.Pi / 180
	dLat := (lat2 - lat1) * deg
	dLon := (lon2 - lon1) * deg
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*deg)*math.Cos(lat2*deg)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}
