package features

import (
	"strings"

	"repro/internal/record"
	"repro/internal/similarity"
)

// Extractor computes feature vectors for record pairs.
type Extractor struct {
	// Geo resolves place distances for the PlaceXGeoDistance features;
	// nil leaves them missing.
	Geo similarity.GeoDistancer

	// Memo, when set, memoizes the symmetric value-pair similarities of
	// the profiled path (Jaro–Winkler and q-gram Jaccard over lowered
	// name values) across record pairs. It never changes outputs — a
	// hit returns exactly the kernel's result — so it may be shared by
	// concurrent workers. Set it before the first ExtractProfiled call.
	// The pipeline leaves it nil; only benchmark/staged.go sets it.
	Memo *PairMemo

	defs []Def

	// interner backs the profiled path's q-gram and name-set IDs.
	// Profiles are only comparable when built by the same extractor —
	// IDs from different interners are unrelated.
	interner *similarity.Interner
}

// NewExtractor returns an extractor over the canonical 48 features.
func NewExtractor(geo similarity.GeoDistancer) *Extractor {
	return &Extractor{Geo: geo, defs: Defs(), interner: similarity.NewInterner()}
}

// InternedStrings returns the number of distinct strings (q-grams and
// lowered name values) the extractor's profiles have interned so far.
func (e *Extractor) InternedStrings() int { return e.interner.Len() }

// Defs returns the extractor's feature definitions.
func (e *Extractor) Defs() []Def { return e.defs }

// Extract computes the pair's feature vector. A feature is missing when
// either record lacks every value of the underlying attribute.
func (e *Extractor) Extract(a, b *record.Record) Vector {
	v := make(Vector, len(e.defs))
	id := 0

	// sameXName: yes when the name sets are equal, partial when they
	// intersect, no otherwise.
	for _, na := range nameAttrs {
		va, vb := a.Values(na.t), b.Values(na.t)
		if len(va) == 0 || len(vb) == 0 {
			id++
			continue
		}
		v[id] = Value{Present: true, Cat: compareNameSets(va, vb)}
		id++
	}

	// XNdist: max q-gram Jaccard similarity over the value cross product.
	for _, na := range nameAttrs {
		va, vb := a.Values(na.t), b.Values(na.t)
		if len(va) == 0 || len(vb) == 0 {
			id++
			continue
		}
		best := 0.0
		for _, x := range va {
			for _, y := range vb {
				if s := similarity.JaccardQGrams(x, y, 2); s > best {
					best = s
				}
			}
		}
		v[id] = Value{Present: true, Num: best}
		id++
	}

	// XNjw: max Jaro-Winkler similarity.
	for _, na := range nameAttrs {
		va, vb := a.Values(na.t), b.Values(na.t)
		if len(va) == 0 || len(vb) == 0 {
			id++
			continue
		}
		best := 0.0
		for _, x := range va {
			for _, y := range vb {
				if s := similarity.JaroWinkler(strings.ToLower(x), strings.ToLower(y)); s > best {
					best = s
				}
			}
		}
		v[id] = Value{Present: true, Num: best}
		id++
	}

	// Birth-date component distances (raw absolute differences, matching
	// the tree thresholds like "B3dist < 1.5").
	for _, t := range []record.ItemType{record.BirthDay, record.BirthMonth, record.BirthYear} {
		xa, okA := a.First(t)
		xb, okB := b.First(t)
		if okA && okB {
			if d, ok := similarity.DateDist(xa, xb); ok {
				v[id] = Value{Present: true, Num: d}
			}
		}
		id++
	}

	// samePlaceXPartY.
	for pt := 0; pt < record.NumPlaceTypes; pt++ {
		for pp := 0; pp < record.NumPlaceParts; pp++ {
			t := record.PlaceItem(record.PlaceType(pt), record.PlacePart(pp))
			xa, okA := a.First(t)
			xb, okB := b.First(t)
			if okA && okB {
				v[id] = Value{Present: true, Cat: boolCat(strings.EqualFold(xa, xb))}
			}
			id++
		}
	}

	// PlaceXGeoDistance over the place-type cities.
	for pt := 0; pt < record.NumPlaceTypes; pt++ {
		t := record.PlaceItem(record.PlaceType(pt), record.City)
		xa, okA := a.First(t)
		xb, okB := b.First(t)
		if okA && okB && e.Geo != nil {
			if km, ok := e.Geo.Distance(xa, xb); ok {
				v[id] = Value{Present: true, Num: km}
			}
		}
		id++
	}

	// sameSource: same list, or testimonies by the same submitter.
	if a.Source != "" && b.Source != "" {
		v[id] = Value{Present: true, Cat: boolCat(a.Source == b.Source)}
	}
	id++

	// sameGender.
	ga, okA := a.First(record.Gender)
	gb, okB := b.First(record.Gender)
	if okA && okB {
		v[id] = Value{Present: true, Cat: boolCat(ga == gb)}
	}
	id++

	// sameProfession.
	pa, okA := a.First(record.Profession)
	pb, okB := b.First(record.Profession)
	if okA && okB {
		v[id] = Value{Present: true, Cat: boolCat(strings.EqualFold(pa, pb))}
	}
	id++

	// sameDOB: full date equality, present only when both carry all three
	// components.
	if dobA, okA := fullDOB(a); okA {
		if dobB, okB := fullDOB(b); okB {
			v[id] = Value{Present: true, Cat: boolCat(dobA == dobB)}
		}
	}
	id++

	return v
}

func fullDOB(r *record.Record) (string, bool) {
	d, okD := r.First(record.BirthDay)
	m, okM := r.First(record.BirthMonth)
	y, okY := r.First(record.BirthYear)
	if !okD || !okM || !okY {
		return "", false
	}
	return joinDOB(d, m, y), true
}

// joinDOB is the full-date form sameDOB compares.
func joinDOB(d, m, y string) string { return d + "/" + m + "/" + y }

// compareNameSets implements the trinary sameXName semantics over the two
// value sets (case-insensitive).
func compareNameSets(va, vb []string) string {
	return compareLowerSets(lowerSet(va), lowerSet(vb))
}

// compareLowerSets is compareNameSets over already-lowered distinct sets.
func compareLowerSets(setA, setB map[string]struct{}) string {
	inter := 0
	for x := range setA {
		if _, ok := setB[x]; ok {
			inter++
		}
	}
	switch {
	case inter == len(setA) && inter == len(setB):
		return SameYes
	case inter > 0:
		return SamePartial
	default:
		return SameNo
	}
}

// compareNameIDs is compareLowerSets over a profile's name values, which
// are distinct and sorted by interned ID. Interning is injective, so the
// intersection count (and hence the trinary outcome) is exactly the
// string-set one.
func compareNameIDs(a, b []nameValue) string {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id == b[j].id:
			inter++
			i++
			j++
		case a[i].id < b[j].id:
			i++
		default:
			j++
		}
	}
	switch {
	case inter == len(a) && inter == len(b):
		return SameYes
	case inter > 0:
		return SamePartial
	default:
		return SameNo
	}
}

func lowerSet(vs []string) map[string]struct{} {
	m := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		m[strings.ToLower(v)] = struct{}{}
	}
	return m
}

func boolCat(b bool) string {
	if b {
		return True
	}
	return False
}
