package features

import (
	"strings"

	"repro/internal/record"
	"repro/internal/similarity"
)

// The raw-record reference implementation of the 48 pair features. The
// program computes every feature from profiles (Extractor.feature, behind
// ExtractProfiled and PairEval); the tests pin that path to this one, which
// re-derives each feature from the records' raw strings on every pair.

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
				in := similarity.NewInterner()
				if s := similarity.JaccardSortedIDs(similarity.QGramIDs(in, x, 2), similarity.QGramIDs(in, y, 2)); s > best {
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

func lowerSet(vs []string) map[string]struct{} {
	m := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		m[strings.ToLower(v)] = struct{}{}
	}
	return m
}
