package similarity

import (
	"math"
	"strconv"

	"repro/internal/gazetteer"
	"repro/internal/record"
)

// Normalization ranges of fsim (Eq. 1): 31 for days, 12 for months, 50
// for years, 100 km for place distances. The BXDist pair features are
// the raw component differences, unnormalized, which is how Table 7's
// thresholds ("B3dist < 1.5") read.
const (
	DayRange       = 31
	MonthRange     = 12
	FsimYearRange  = 50
	FsimGeoRangeKm = 100
)

// DateDist returns |a-b| for two numeric date-component strings. ok is
// false when either fails to parse.
func DateDist(a, b string) (d float64, ok bool) {
	x, errX := strconv.Atoi(a)
	y, errY := strconv.Atoi(b)
	if errX != nil || errY != nil {
		return 0, false
	}
	return math.Abs(float64(x - y)), true
}

// ItemSim is the expert item similarity function of Eq. 1: items of
// different types are dissimilar; names compare by Jaro–Winkler; date
// components by normalized absolute distance; place cities by normalized
// geographic distance. Non-city place parts, gender, and profession fall
// back to exact match, and unparseable values score 0.
type ItemSim struct {
	// Geo resolves city distances. When nil, cities fall back to exact
	// string comparison.
	Geo *gazetteer.Gazetteer
}

// Compare returns fsim(a, b) in [0,1].
func (s ItemSim) Compare(a, b record.Item) float64 {
	if a.Type != b.Type {
		return 0
	}
	t := a.Type
	switch {
	case t.IsName():
		return JaroWinkler(a.Value, b.Value)
	case t == record.BirthYear:
		return normalizedDateSim(a.Value, b.Value, FsimYearRange)
	case t == record.BirthMonth:
		return normalizedDateSim(a.Value, b.Value, MonthRange)
	case t == record.BirthDay:
		return normalizedDateSim(a.Value, b.Value, DayRange)
	case t.IsPlace():
		if _, part, _ := t.Place(); part == record.City && s.Geo != nil {
			if km, ok := s.Geo.Distance(a.Value, b.Value); ok {
				return math.Max(0, 1-km/FsimGeoRangeKm)
			}
		}
		return exact(a.Value, b.Value)
	default:
		return exact(a.Value, b.Value)
	}
}

func normalizedDateSim(a, b string, rangeMax float64) float64 {
	d, ok := DateDist(a, b)
	if !ok {
		return 0
	}
	return math.Max(0, 1-d/rangeMax)
}

func exact(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}
