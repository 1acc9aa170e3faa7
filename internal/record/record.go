package record

import (
	"fmt"
	"sort"
	"strings"
)

// SourceKind distinguishes the two provenance classes of the Names Project.
type SourceKind uint8

// Source kinds: a Page of Testimony filed by an individual submitter, or an
// extracted victim list (transport manifest, camp registry, ...).
const (
	Testimony SourceKind = iota
	List
)

func (k SourceKind) String() string {
	if k == Testimony {
		return "Testimony"
	}
	return "List"
}

// Record is one victim report: a BookID, its provenance, and a bag of typed
// items. Multiple items of the same type (e.g. two first names) are allowed
// and common.
type Record struct {
	// BookID is the sequential identifier assigned when the report was
	// entered into the database.
	BookID int64
	// Source identifies the report's origin: the victim list it was
	// extracted from, or the submitter of the Page of Testimony. Records
	// sharing a Source are "same source" for the SameSrc filter.
	Source string
	// Kind tells whether Source names a list or a testimony submitter.
	Kind SourceKind
	// Items is the report's bag of typed items.
	Items []Item
}

// Values returns all values of the given item type, in insertion order.
func (r *Record) Values(t ItemType) []string {
	var vs []string
	for _, it := range r.Items {
		if it.Type == t {
			vs = append(vs, it.Value)
		}
	}
	return vs
}

// First returns the first value of the given item type and whether one
// exists.
func (r *Record) First(t ItemType) (string, bool) {
	for _, it := range r.Items {
		if it.Type == t {
			return it.Value, true
		}
	}
	return "", false
}

// Add appends an item, skipping empty values.
func (r *Record) Add(t ItemType, value string) {
	if value == "" {
		return
	}
	r.Items = append(r.Items, Item{Type: t, Value: value})
}

// Keys returns the canonical item keys of the record's bag, deduplicated
// and sorted. This is the representation consumed by itemset mining.
func (r *Record) Keys() []string {
	seen := make(map[string]struct{}, len(r.Items))
	keys := make([]string, 0, len(r.Items))
	for _, it := range r.Items {
		k := it.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Pattern returns the record's data pattern: the set of distinct item types
// it has values for, encoded as a canonical string. Records share a pattern
// iff they have values for exactly the same item types (Section 6.2).
func (r *Record) Pattern() Pattern {
	var mask uint32
	for _, it := range r.Items {
		mask |= 1 << uint(it.Type)
	}
	return Pattern(mask)
}

// String renders the record in the paper's Table-2 item-bag style.
func (r *Record) String() string {
	parts := make([]string, 0, len(r.Items)+1)
	parts = append(parts, fmt.Sprintf("%d", r.BookID))
	for _, it := range r.Items {
		parts = append(parts, it.String())
	}
	return strings.Join(parts, ", ")
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	cp := *r
	cp.Items = append([]Item(nil), r.Items...)
	return &cp
}

// Pattern is a bitset over item types: bit t is set iff the record has at
// least one value of ItemType(t). It is comparable and usable as a map key.
type Pattern uint32

// Has reports whether the pattern includes the item type.
func (p Pattern) Has(t ItemType) bool {
	return p&(1<<uint(t)) != 0
}

// Types returns the item types in the pattern, in declaration order.
func (p Pattern) Types() []ItemType {
	var ts []ItemType
	for t := 0; t < NumItemTypes; t++ {
		if p.Has(ItemType(t)) {
			ts = append(ts, ItemType(t))
		}
	}
	return ts
}

// FullPattern returns the pattern containing every item type.
func FullPattern() Pattern {
	return Pattern(1<<uint(NumItemTypes) - 1)
}

// String renders the pattern as a +-joined list of prefixes.
func (p Pattern) String() string {
	ts := p.Types()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.Prefix()
	}
	return strings.Join(parts, "+")
}
