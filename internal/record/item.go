// Package record defines the victim-report data model of the Names Project
// database: typed items, records as bags of items, data patterns, and the
// item dictionary used to encode records for frequent-itemset mining.
//
// A record is a bag of typed items. Following the paper, every field value
// is prefixed with a short field tag when serialized to an item bag, so the
// first name "Avraham" becomes the item "F:avraham". Records may carry
// multiple occurrences of the same item type (e.g. two first names), which
// the bag-of-items model supports directly.
package record

import "fmt"

// ItemType identifies one of the 28 typed fields of a victim report
// (Table 4 of the paper).
type ItemType uint8

// Item types. The order groups names, demographic attributes, birth-date
// components, and the four place types by their four components.
const (
	LastName ItemType = iota
	FirstName
	Gender
	MaidenName
	MotherMaiden
	MotherName
	Profession
	SpouseName
	FatherName
	BirthDay
	BirthMonth
	BirthYear
	BirthCity
	BirthCounty
	BirthRegion
	BirthCountry
	WarCity
	WarCounty
	WarRegion
	WarCountry
	PermCity
	PermCounty
	PermRegion
	PermCountry
	DeathCity
	DeathCounty
	DeathRegion
	DeathCountry

	// NumItemTypes is the number of distinct item types.
	NumItemTypes = int(DeathCountry) + 1
)

// PlaceType distinguishes the four place roles a report may mention.
type PlaceType uint8

// The four place types of the Names Project schema.
const (
	Birth PlaceType = iota
	Wartime
	Permanent
	Death

	// NumPlaceTypes is the number of place roles.
	NumPlaceTypes = int(Death) + 1
)

// PlacePart distinguishes the four components of a hierarchical place.
type PlacePart uint8

// The four components of a place, finest to coarsest.
const (
	City PlacePart = iota
	County
	Region
	Country

	// NumPlaceParts is the number of place components.
	NumPlaceParts = int(Country) + 1
)

var placeTypeNames = [NumPlaceTypes]string{"Birth", "Wartime", "Permanent", "Death"}

func (p PlaceType) String() string {
	if int(p) < len(placeTypeNames) {
		return placeTypeNames[p]
	}
	return fmt.Sprintf("PlaceType(%d)", uint8(p))
}

var placePartNames = [NumPlaceParts]string{"City", "County", "Region", "Country"}

func (p PlacePart) String() string {
	if int(p) < len(placePartNames) {
		return placePartNames[p]
	}
	return fmt.Sprintf("PlacePart(%d)", uint8(p))
}

// PlaceItem returns the item type holding the given component of the given
// place role, e.g. PlaceItem(Birth, City) == BirthCity.
func PlaceItem(t PlaceType, p PlacePart) ItemType {
	return BirthCity + ItemType(int(t)*NumPlaceParts+int(p))
}

// itemMeta carries the display name and the serialization prefix of an item
// type. Prefixes follow the paper's item-bag convention (Table 2): name
// fields use single letters, place components use P1..P4 per role.
type itemMeta struct {
	name   string
	prefix string
}

var itemMetas = [NumItemTypes]itemMeta{
	LastName:     {"Last Name", "L"},
	FirstName:    {"First Name", "F"},
	Gender:       {"Gender", "G"},
	MaidenName:   {"Maiden Name", "MD"},
	MotherMaiden: {"Mother's Maiden Name", "MM"},
	MotherName:   {"Mother's First Name", "MF"},
	Profession:   {"Profession", "PR"},
	SpouseName:   {"Spouse Name", "S"},
	FatherName:   {"Father's Name", "FF"},
	BirthDay:     {"Birth Day", "B1"},
	BirthMonth:   {"Birth Month", "B2"},
	BirthYear:    {"Birth Year", "B3"},
	BirthCity:    {"Birth City", "BP1"},
	BirthCounty:  {"Birth County", "BP2"},
	BirthRegion:  {"Birth Region", "BP3"},
	BirthCountry: {"Birth Country", "BP4"},
	WarCity:      {"War City", "WP1"},
	WarCounty:    {"War County", "WP2"},
	WarRegion:    {"War Region", "WP3"},
	WarCountry:   {"War Country", "WP4"},
	PermCity:     {"Perm. City", "PP1"},
	PermCounty:   {"Perm. County", "PP2"},
	PermRegion:   {"Perm. Region", "PP3"},
	PermCountry:  {"Perm. Country", "PP4"},
	DeathCity:    {"Death City", "DP1"},
	DeathCounty:  {"Death County", "DP2"},
	DeathRegion:  {"Death Region", "DP3"},
	DeathCountry: {"Death Country", "DP4"},
}

var prefixToType = func() map[string]ItemType {
	m := make(map[string]ItemType, NumItemTypes)
	for t, meta := range itemMetas {
		m[meta.prefix] = ItemType(t)
	}
	return m
}()

// String returns the human-readable item type name used in the paper's
// tables (e.g. "Mother's Maiden Name").
func (t ItemType) String() string {
	if int(t) < NumItemTypes {
		return itemMetas[t].name
	}
	return fmt.Sprintf("ItemType(%d)", uint8(t))
}

// Prefix returns the serialization prefix of the item type.
func (t ItemType) Prefix() string {
	if int(t) < NumItemTypes {
		return itemMetas[t].prefix
	}
	return "?"
}

// TypeForPrefix resolves a serialization prefix back to its item type.
func TypeForPrefix(prefix string) (ItemType, bool) {
	t, ok := prefixToType[prefix]
	return t, ok
}

// IsName reports whether the item type holds a personal name.
func (t ItemType) IsName() bool {
	switch t {
	case LastName, FirstName, MaidenName, MotherMaiden, MotherName, SpouseName, FatherName:
		return true
	}
	return false
}

// IsPlace reports whether the item type is a place component.
func (t ItemType) IsPlace() bool {
	return t >= BirthCity && t <= DeathCountry
}

// Place decomposes a place item type into its role and component. It
// reports ok=false for non-place types.
func (t ItemType) Place() (pt PlaceType, pp PlacePart, ok bool) {
	if !t.IsPlace() {
		return 0, 0, false
	}
	off := int(t - BirthCity)
	return PlaceType(off / NumPlaceParts), PlacePart(off % NumPlaceParts), true
}

// AllItemTypes returns all item types in declaration order. The returned
// slice is freshly allocated and may be modified by the caller.
func AllItemTypes() []ItemType {
	ts := make([]ItemType, NumItemTypes)
	for i := range ts {
		ts[i] = ItemType(i)
	}
	return ts
}

// Item is a single typed value in a record's item bag.
type Item struct {
	Type  ItemType
	Value string
}

// Key returns the canonical "prefix:value" encoding of the item, unique per
// (type, value) pair. Two items with equal keys are the same item for
// frequent-itemset mining.
func (it Item) Key() string {
	return it.Type.Prefix() + ":" + it.Value
}

// String implements fmt.Stringer using the paper's "F Avraham" style.
func (it Item) String() string {
	return it.Type.Prefix() + " " + it.Value
}
