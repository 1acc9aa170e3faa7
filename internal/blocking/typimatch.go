package blocking

import (
	"fmt"
	"sort"

	"repro/internal/record"
)

// TYPiMatch (Ma & Tran 2013) learns entity "types" from a token
// co-occurrence graph — tokens that frequently co-occur form type
// clusters — and then applies standard blocking within each type, so a key
// only groups records of the same learned type.
//
// The published method extracts maximal cliques; as documented in
// DESIGN.md we approximate cliques by the connected components of the
// thresholded co-occurrence graph, which preserves the method's behaviour
// on this dataset (types are well separated) at polynomial cost.
type TYPiMatch struct {
	// MinCooc is the minimal co-occurrence count for a graph edge;
	// default 20.
	MinCooc int
	// MinStrength is the minimal conditional co-occurrence probability
	// max(P(a|b), P(b|a)) for an edge; default 0.3.
	MinStrength float64
}

// Name implements Blocker.
func (TYPiMatch) Name() string { return "TYPiMatch" }

// Block implements Blocker.
func (t TYPiMatch) Block(coll *record.Collection) []Block {
	minCooc := t.MinCooc
	if minCooc < 1 {
		minCooc = 20
	}
	minStrength := t.MinStrength
	if minStrength <= 0 {
		minStrength = 0.3
	}

	// Token universe: item-type prefixes are the tokens' namespaces; the
	// co-occurrence graph is over item types (the schema-level "tokens"),
	// which is what type learning recovers on schema-heterogeneous data.
	// Count per-record co-occurrence of item types.
	typeCount := make(map[record.ItemType]int)
	coocCount := make(map[[2]record.ItemType]int)
	for _, r := range coll.Records {
		ts := r.Pattern().Types()
		for _, a := range ts {
			typeCount[a]++
		}
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				coocCount[[2]record.ItemType{ts[i], ts[j]}]++
			}
		}
	}

	// Thresholded edges -> union-find components = learned types.
	parent := make(map[record.ItemType]record.ItemType)
	var find func(x record.ItemType) record.ItemType
	find = func(x record.ItemType) record.ItemType {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b record.ItemType) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for pair, c := range coocCount {
		if c < minCooc {
			continue
		}
		a, b := pair[0], pair[1]
		strength := float64(c) / float64(min(typeCount[a], typeCount[b]))
		if strength >= minStrength {
			union(a, b)
		}
	}

	// A record's learned type is the sorted set of components its item
	// types map to; records sharing a component are of compatible type.
	// Blocking key = (component, item key).
	idx := newKeyIndex()
	for i, r := range coll.Records {
		for _, it := range r.Items {
			comp := find(it.Type)
			idx.add(fmt.Sprintf("t%d|%s", comp, it.Key()), i)
		}
	}
	blocks := idx.blocks()
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].Key < blocks[b].Key })
	return purge(blocks, coll.Len())
}
