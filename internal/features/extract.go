package features

import (
	"repro/internal/gazetteer"
	"repro/internal/record"
	"repro/internal/similarity"
)

// Extractor computes the pair features of records from their profiles.
type Extractor struct {
	// Geo resolves profiles' cities to the coordinates the
	// PlaceXGeoDistance features read; nil leaves them missing.
	Geo *gazetteer.Gazetteer

	// Memo has no effect: the extractor caches no kernel results. It
	// remains only because benchmark/staged.go sets it (ROADMAP 1(a)).
	Memo *PairMemo

	defs []Def

	// interner backs the profiled path's q-gram and name-set IDs.
	// Profiles are only comparable when built by the same extractor —
	// IDs from different interners are unrelated.
	interner *similarity.Interner

	// profiled has bit id set for every feature whose inputs the
	// extractor's profiles carry; the profiled path panics on any other.
	// nameTypes and firstTypes have bit t set for every item type whose
	// name values, or whose first value, a profile keeps.
	profiled   uint64
	nameTypes  uint32
	firstTypes uint32

	// values is the value table: slot id holds the lowered string and
	// gram set of the name value interned as id, and a slot whose grams
	// is nil (a q-gram's or birth date's id) holds none. Build grows it in
	// place and never rewrites a filled slot, so profiles built earlier
	// keep finding their IDs; feature reads it once Build has returned.
	values []nameValue
}

// allFeatures is the profiled set of a full extractor.
const allFeatures = 1<<NumFeatures - 1

// NewExtractor returns an extractor over the canonical 48 features whose
// profiles carry the inputs of all of them.
func NewExtractor(geo *gazetteer.Gazetteer) *Extractor {
	return newExtractor(geo, allFeatures)
}

// NewExtractorFor returns an extractor whose profiles carry the inputs of
// the given features alone — the ids a model tests (adtree's
// Model.UsedFeatures) — so a build skips the name attributes, the full
// birth date and the place-type cities none of them reads. Its profiled
// path answers only those features: PairEval.At panics on any other, and
// ExtractProfiled, which computes every feature, always panics unless the
// ids cover all 48.
func NewExtractorFor(geo *gazetteer.Gazetteer, ids []int) *Extractor {
	var set uint64
	for _, id := range ids {
		set |= 1 << id
	}
	return newExtractor(geo, set)
}

func newExtractor(geo *gazetteer.Gazetteer, profiled uint64) *Extractor {
	e := &Extractor{Geo: geo, defs: Defs(), interner: similarity.NewInterner(), profiled: profiled}
	for i, na := range nameAttrs {
		if profiled&(1<<(idSameName+i)|1<<(idNameDist+i)|1<<(idNameJW+i)) != 0 {
			e.nameTypes |= 1 << na.t
		}
	}
	// The pair features compare the sixteen place parts, gender and
	// profession by first value alone; samePlace features ascend in
	// item-type order from BirthCity.
	for t := record.BirthCity; t <= record.DeathCountry; t++ {
		if profiled&(1<<(idSamePlace+int(t-record.BirthCity))) != 0 {
			e.firstTypes |= 1 << t
		}
	}
	if profiled&(1<<idSameGender) != 0 {
		e.firstTypes |= 1 << record.Gender
	}
	if profiled&(1<<idSameProf) != 0 {
		e.firstTypes |= 1 << record.Profession
	}
	return e
}

// InternedStrings returns the number of distinct strings (q-grams,
// lowered name values and full birth dates) the extractor's profiles have
// interned so far.
func (e *Extractor) InternedStrings() int { return e.interner.Len() }

// joinDOB is the full-date form sameDOB compares.
func joinDOB(d, m, y string) string { return d + "/" + m + "/" + y }

// compareNameIDs implements the trinary sameXName semantics — yes when
// the name sets are equal, partial when they intersect, no otherwise —
// over a profile's name values, which are the sorted, distinct interned
// IDs of lowered strings. Interning is injective, so the intersection
// count is exactly the case-insensitive string-set one.
func compareNameIDs(a, b []uint32) string {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
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

func boolCat(b bool) string {
	if b {
		return True
	}
	return False
}
