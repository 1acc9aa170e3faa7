package dataset

import (
	"math/rand"

	"repro/internal/record"
)

// Tag is one of the five grades the Yad Vashem archival experts assigned to
// candidate pairs.
type Tag uint8

// The five expert grades. A Maybe tag means the pair does not carry enough
// information to decide.
const (
	No Tag = iota
	ProbablyNo
	Maybe
	ProbablyYes
	Yes

	// NumTags is the number of grades.
	NumTags = int(Yes) + 1
)

var tagNames = [NumTags]string{"No", "Probably-No", "Maybe", "Probably Yes", "Yes"}

func (t Tag) String() string {
	if int(t) < NumTags {
		return tagNames[t]
	}
	return "Tag(?)"
}

// IsMatch reports whether the simplified grade counts as a match
// (Yes + Probably Yes, per Section 5.1).
func (t Tag) IsMatch() bool { return t >= ProbablyYes }

// TaggedPair is one expert-graded candidate pair.
type TaggedPair struct {
	Pair record.Pair
	Tag  Tag
}

// TagSet holds the expert grades for a set of candidate pairs.
type TagSet struct {
	Pairs []TaggedPair
}

// NewTagSet holds tagged pairs.
func NewTagSet(pairs []TaggedPair) *TagSet { return &TagSet{Pairs: pairs} }

// Len returns the number of tagged pairs.
func (ts *TagSet) Len() int { return len(ts.Pairs) }

// CountByTag returns a histogram over grades.
func (ts *TagSet) CountByTag() [NumTags]int {
	var h [NumTags]int
	for _, tp := range ts.Pairs {
		h[tp.Tag]++
	}
	return h
}

// Tagger simulates the archival experts: grades depend on ground truth and
// on the information content of the pair — sparse pairs draw Maybe grades,
// borderline evidence draws the Probably grades, and non-matching relatives
// (same family) are the hardest to reject.
type Tagger struct {
	Gold *Gold
	Coll *record.Collection
	Rng  *rand.Rand
}

// informativeTypes are the item types experts weigh when grading; place
// components count once per place role (via the city), and gender or
// profession alone decide nothing.
var informativeTypes = []record.ItemType{
	record.FirstName, record.LastName, record.FatherName, record.MotherName,
	record.SpouseName, record.MaidenName, record.MotherMaiden,
	record.BirthYear, record.BirthCity, record.PermCity, record.WarCity,
	record.DeathCity,
}

// sharedInfo counts the informative item types both records carry.
func sharedInfo(a, b *record.Record) int {
	pa, pb := a.Pattern(), b.Pattern()
	n := 0
	for _, t := range informativeTypes {
		if pa.Has(t) && pb.Has(t) {
			n++
		}
	}
	return n
}

// TagPairs grades candidate pairs. Pairs referencing unknown records are
// skipped.
func (tg *Tagger) TagPairs(pairs []record.Pair) *TagSet {
	tagged := make([]TaggedPair, 0, len(pairs))
	for _, p := range pairs {
		ra, rb := tg.Coll.ByID(p.A), tg.Coll.ByID(p.B)
		if ra == nil || rb == nil {
			continue
		}
		tagged = append(tagged, TaggedPair{Pair: p, Tag: tg.grade(p, ra, rb)})
	}
	return NewTagSet(tagged)
}

func (tg *Tagger) grade(p record.Pair, ra, rb *record.Record) Tag {
	info := sharedInfo(ra, rb)
	x := tg.Rng.Float64()
	if tg.Gold.Match(p.A, p.B) {
		switch {
		case info >= 5:
			return pickTag(x, [NumTags]float64{0, 0, 0.02, 0.12, 0.86})
		case info >= 3:
			return pickTag(x, [NumTags]float64{0, 0.02, 0.13, 0.40, 0.45})
		default:
			return pickTag(x, [NumTags]float64{0, 0.08, 0.57, 0.30, 0.05})
		}
	}
	if tg.Gold.SameFamily(p.A, p.B) {
		return pickTag(x, [NumTags]float64{0.22, 0.43, 0.30, 0.04, 0.01})
	}
	if info <= 2 {
		return pickTag(x, [NumTags]float64{0.48, 0.30, 0.20, 0.02, 0})
	}
	return pickTag(x, [NumTags]float64{0.74, 0.20, 0.05, 0.01, 0})
}

func pickTag(x float64, probs [NumTags]float64) Tag {
	for t := 0; t < NumTags; t++ {
		x -= probs[t]
		if x < 0 {
			return Tag(t)
		}
	}
	return Yes
}
