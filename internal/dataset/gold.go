package dataset

import (
	"sort"

	"repro/internal/record"
)

// Gold is the matching ground truth: which entity (person) and family each
// report refers to.
type Gold struct {
	entityOf map[int64]int
	familyOf map[int64]int
	members  map[int][]int64 // entity -> BookIDs, insertion order
}

// NewGold returns an empty gold standard.
func NewGold() *Gold { return newGold(0, 0) }

// newGold returns an empty gold standard sized for about the given
// numbers of entities and reports.
func newGold(entities, reports int) *Gold {
	return &Gold{
		entityOf: make(map[int64]int, reports),
		familyOf: make(map[int64]int, reports),
		members:  make(map[int][]int64, entities),
	}
}

// Add registers a report's entity and family.
func (g *Gold) Add(bookID int64, entityID, familyID int) {
	g.entityOf[bookID] = entityID
	g.familyOf[bookID] = familyID
	g.members[entityID] = append(g.members[entityID], bookID)
}

// Entity returns the entity of a report; ok is false for unknown reports.
func (g *Gold) Entity(bookID int64) (int, bool) {
	e, ok := g.entityOf[bookID]
	return e, ok
}

// Family returns the family of a report; ok is false for unknown reports.
func (g *Gold) Family(bookID int64) (int, bool) {
	f, ok := g.familyOf[bookID]
	return f, ok
}

// Match reports whether two reports refer to the same person.
func (g *Gold) Match(a, b int64) bool {
	ea, okA := g.entityOf[a]
	eb, okB := g.entityOf[b]
	return okA && okB && ea == eb
}

// SameFamily reports whether two reports refer to members of one family
// (including the same person).
func (g *Gold) SameFamily(a, b int64) bool {
	fa, okA := g.familyOf[a]
	fb, okB := g.familyOf[b]
	return okA && okB && fa == fb
}

// TruePairs returns every intra-entity report pair, canonically ordered
// and sorted, the recall denominator of the evaluation.
func (g *Gold) TruePairs() []record.Pair {
	var pairs []record.Pair
	for _, ids := range g.members {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pairs = append(pairs, record.MakePair(ids[i], ids[j]))
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// TruePairCount returns the number of intra-entity pairs without
// materializing them.
func (g *Gold) TruePairCount() int {
	n := 0
	for _, ids := range g.members {
		n += len(ids) * (len(ids) - 1) / 2
	}
	return n
}

// FamilyPairs returns every intra-family report pair (including
// intra-entity pairs), the denominator for family-level resolution.
func (g *Gold) FamilyPairs() []record.Pair {
	byFamily := make(map[int][]int64)
	for id, fam := range g.familyOf {
		byFamily[fam] = append(byFamily[fam], id)
	}
	var pairs []record.Pair
	for _, ids := range byFamily {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				pairs = append(pairs, record.MakePair(ids[i], ids[j]))
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// Entities returns the number of distinct entities with at least one
// report.
func (g *Gold) Entities() int { return len(g.members) }

// ClusterSizes returns a histogram of entity cluster sizes: sizes[k] is the
// number of entities with exactly k reports.
func (g *Gold) ClusterSizes() map[int]int {
	h := make(map[int]int)
	for _, ids := range g.members {
		h[len(ids)]++
	}
	return h
}
