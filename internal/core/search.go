package core

import (
	"slices"

	"repro/internal/names"
)

// Query is a relative-search request, the paper's motivating Web use case:
// a person searching for perished relatives controls the size of the
// response by tuning the certainty parameter.
type Query struct {
	// First matches any of an entity's first names, through the name
	// equivalence classes (searching "Isak" finds "Yitzhak"). Empty
	// matches everything.
	First string
	// Last matches any of an entity's last names case-insensitively.
	// Empty matches everything.
	Last string
	// Certainty is the resolution threshold: lower values merge more
	// reports per entity (fewer, richer results), higher values split
	// them (more, smaller results).
	Certainty float64
	// Limit caps the number of entities returned; zero returns them all.
	Limit int
}

// Search resolves the collection at the query's certainty and returns the
// entities matching the name query, ordered as produced by Clusters.
// Without a deterministic query (e.g. the example record is missed), a
// record's information may surface under more than one spelling; the
// equivalence classes absorb the registered variants — the paper's point
// that a simple "first name = Guido AND last name = Foa" query misses the
// "Foy" record.
//
// An entity matches when some member report carries a matching first name
// and some member report a matching last name. Both are read off the name
// index, so the cost follows the reports carrying the names and the
// entities returned, not the collection.
func (r *Resolution) Search(q Query) []*Entity {
	ix, limit := r.cut(q.Certainty)
	var hits []int32 // matching entities by their smallest member, ascending
	switch {
	case q.First == "" && q.Last == "":
		hits = ix.heads(limit)
	case q.Last == "":
		hits = ix.carrying(limit, ix.first, names.ClassKeys(q.First))
	case q.First == "":
		hits = ix.carrying(limit, ix.last, []string{names.FoldKey(q.Last)})
	default:
		hits = ix.carrying(limit, ix.first, names.ClassKeys(q.First))
		withLast := ix.carrying(limit, ix.last, []string{names.FoldKey(q.Last)})
		both := hits[:0]
		for _, e := range hits {
			if _, ok := slices.BinarySearch(withLast, e); ok {
				both = append(both, e)
			}
		}
		hits = both
	}
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	if len(hits) == 0 {
		return nil
	}
	out := make([]*Entity, len(hits))
	for i, h := range hits {
		out[i] = r.view(ix, ix.entity(h, limit))
	}
	return out
}

// carrying returns the entities with a member among the postings of any of
// the keys, by their smallest member, ascending.
func (ix *queryIndex) carrying(limit int32, postings map[string][]int32, keys []string) []int32 {
	var out []int32
	for _, k := range keys {
		for _, rec := range postings[k] {
			out = append(out, ix.least[ix.entity(rec, limit)])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
