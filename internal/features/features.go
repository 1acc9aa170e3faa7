// Package features defines and extracts the 48 record-pair similarity
// features the classifier consumes (Section 5.1). Features are typed
// (numeric or categorical) and may be missing: when either record lacks
// the underlying attribute, the feature is absent for the pair — the
// ADTree's missing-value semantics then skip every test on it.
package features

import (
	"fmt"

	"repro/internal/record"
)

// Kind is a feature's value type.
type Kind uint8

// Feature kinds.
const (
	Numeric Kind = iota
	Categorical
)

// Categorical levels of the sameXName features.
const (
	SameYes     = "yes"
	SamePartial = "partial"
	SameNo      = "no"
)

// Boolean categorical levels.
const (
	True  = "true"
	False = "false"
)

// Def describes one feature.
type Def struct {
	// ID is the feature's index into a Vector.
	ID int
	// Name matches the paper's tree-rendering labels (e.g. "FFNdist").
	Name string
	Kind Kind
	// Levels enumerates the values of a categorical feature.
	Levels []string
}

// Value is one extracted feature value; Present is false when the pair
// lacks the underlying attributes.
type Value struct {
	Present bool
	Num     float64
	Cat     string
}

// Vector is a pair's feature vector, indexed by Def.ID.
type Vector []Value

// At returns feature id's value; an id the vector does not hold reads as
// missing.
func (v Vector) At(id int) Value {
	if uint(id) < uint(len(v)) {
		return v[id]
	}
	return Value{}
}

// nameAttr pairs a name-typed attribute with its label stem.
type nameAttr struct {
	t    record.ItemType
	stem string
}

// The seven name attributes, in the paper's listing order.
var nameAttrs = [...]nameAttr{
	{record.FirstName, "FN"},
	{record.LastName, "LN"},
	{record.SpouseName, "SN"},
	{record.FatherName, "FFN"},
	{record.MotherName, "MFN"},
	{record.MotherMaiden, "MMN"},
	{record.MaidenName, "MN"},
}

var placeStems = [record.NumPlaceTypes]string{"B", "W", "P", "D"}

// Defs returns the 48 feature definitions in canonical order:
//
//	0..6    sameXName        categorical {yes,partial,no}
//	7..13   XNdist           token/q-gram Jaccard similarity, max over values
//	14..20  XNjw             Jaro-Winkler similarity, max over values
//	21..23  B1dist/B2dist/B3dist  absolute day/month/year difference
//	24..39  samePlace{B,W,P,D}{City,County,Region,Country} categorical bool
//	40..43  {B,W,P,D}PGeoDist     km between the place-type cities
//	44      sameSource       categorical bool
//	45      sameGender       categorical bool
//	46      sameProfession   categorical bool
//	47      sameDOB          categorical bool (full date equal)
func Defs() []Def {
	var defs []Def
	add := func(name string, k Kind, levels []string) {
		defs = append(defs, Def{ID: len(defs), Name: name, Kind: k, Levels: levels})
	}
	triLevels := []string{SameYes, SamePartial, SameNo}
	boolLevels := []string{True, False}
	for _, na := range nameAttrs {
		add("same"+na.stem, Categorical, triLevels)
	}
	for _, na := range nameAttrs {
		add(na.stem+"dist", Numeric, nil)
	}
	for _, na := range nameAttrs {
		add(na.stem+"jw", Numeric, nil)
	}
	add("B1dist", Numeric, nil)
	add("B2dist", Numeric, nil)
	add("B3dist", Numeric, nil)
	for pt := 0; pt < record.NumPlaceTypes; pt++ {
		for pp := 0; pp < record.NumPlaceParts; pp++ {
			add(fmt.Sprintf("same%s%v", placeStems[pt], record.PlacePart(pp)), Categorical, boolLevels)
		}
	}
	for pt := 0; pt < record.NumPlaceTypes; pt++ {
		add(placeStems[pt]+"PGeoDist", Numeric, nil)
	}
	add("sameSource", Categorical, boolLevels)
	add("sameGender", Categorical, boolLevels)
	add("sameProfession", Categorical, boolLevels)
	add("sameDOB", Categorical, boolLevels)
	return defs
}

// The first id of each feature group, in the order Defs lists them.
const (
	idSameName   = 0
	idNameDist   = idSameName + len(nameAttrs)
	idNameJW     = idNameDist + len(nameAttrs)
	idDateDist   = idNameJW + len(nameAttrs)
	idSamePlace  = idDateDist + len(dateTypes)
	idGeoDist    = idSamePlace + record.NumPlaceTypes*record.NumPlaceParts
	idSameSource = idGeoDist + record.NumPlaceTypes
	idSameGender = idSameSource + 1
	idSameProf   = idSameGender + 1
	idSameDOB    = idSameProf + 1

	// NumFeatures is the size of a feature vector (see Defs) — a
	// constant, so a caller can keep a vector or a PairEval on its stack.
	NumFeatures = idSameDOB + 1
)

// IndexByName maps feature names to ids for the canonical definition set.
func IndexByName() map[string]int {
	m := make(map[string]int, NumFeatures)
	for _, d := range Defs() {
		m[d.Name] = d.ID
	}
	return m
}
