package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/names"
	"repro/internal/record"
)

// Entity is a resolved person: the set of reports attributed to one
// individual at the chosen certainty, with a merged attribute view.
type Entity struct {
	// Reports are the member BookIDs, ascending.
	Reports []int64
	// Values merges the members' items: every distinct value observed per
	// item type, with the number of supporting reports.
	Values map[record.ItemType][]ValueSupport
}

// ValueSupport is one observed value and how many member reports carry it.
type ValueSupport struct {
	Value   string
	Reports int
}

// Best returns the entity's most supported value of an item type.
func (e *Entity) Best(t record.ItemType) (string, bool) {
	vs := e.Values[t]
	if len(vs) == 0 {
		return "", false
	}
	return vs[0].Value, true
}

// partition is the crisp clustering at one certainty: connected components
// over the accepted matches, singletons for unmatched records. Records are
// positions in Collection.Records; entities are numbered in ascending
// order of their smallest member BookID, and an entity's members are
// listed in ascending BookID order — the order every query answers in.
// It holds no merged views: 12 bytes per record is all a memo entry keeps.
type partition struct {
	label   []int32 // record -> entity
	start   []int32 // entity e's members are members[start[e]:start[e+1]]
	members []int32 // records, grouped by entity
}

func (p *partition) entities() int { return len(p.start) - 1 }

func (p *partition) of(entity int32) []int32 {
	return p.members[p.start[entity]:p.start[entity+1]]
}

// queryIndex is what the query layer derives once from a finished
// resolution, on the first query: nothing here is built by Run/RunStream.
type queryIndex struct {
	// byBook lists the records in ascending BookID order.
	byBook []int32
	// ends holds the two records of Matches[i] at 2i and 2i+1, so a
	// partition is one pass over a prefix of it with no BookID lookups.
	ends []int32
	// first and last are the name index: names.FoldKey of a first or last
	// name -> the records carrying it.
	first, last map[string][]int32
}

func (r *Resolution) queryIndex() *queryIndex {
	r.queryOnce.Do(func() {
		recs := r.Collection.Records
		ix := &queryIndex{
			byBook: make([]int32, len(recs)),
			ends:   make([]int32, 0, 2*len(r.Matches)),
			first:  make(map[string][]int32),
			last:   make(map[string][]int32),
		}
		for i, rec := range recs {
			ix.byBook[i] = int32(i)
			for _, it := range rec.Items {
				switch it.Type {
				case record.FirstName:
					post(ix.first, it.Value, int32(i))
				case record.LastName:
					post(ix.last, it.Value, int32(i))
				}
			}
		}
		slices.SortFunc(ix.byBook, func(a, b int32) int {
			return cmp.Compare(recs[a].BookID, recs[b].BookID)
		})
		for _, m := range r.Matches {
			ix.ends = append(ix.ends, int32(r.Collection.Index(m.Pair.A)), int32(r.Collection.Index(m.Pair.B)))
		}
		r.queryIdx = ix
	})
	return r.queryIdx
}

// post appends rec to the postings of name, once per record.
func post(postings map[string][]int32, name string, rec int32) {
	k := names.FoldKey(name)
	if ps := postings[k]; len(ps) == 0 || ps[len(ps)-1] != rec {
		postings[k] = append(ps, rec)
	}
}

// maxMemoEntries bounds the partition memo so a client sweeping thresholds
// cannot grow the resolution unboundedly; a full memo is cleared.
const maxMemoEntries = 64

// clusterMemo caches partitions by the number of accepted matches. Matches
// are sorted, so the accepted set at a certainty is a prefix of them and
// every certainty between two adjacent scores shares one entry; NaN accepts
// nothing and is length 0 like any certainty above the best score.
type clusterMemo struct {
	mu           sync.Mutex
	byPrefix     map[int]*partition
	hits, misses int64
}

// MemoStats counts the cluster memo's traffic since the resolution was
// built: a miss is one partition computed.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// ClusterMemoStats reports the cluster memo's counters.
func (r *Resolution) ClusterMemoStats() MemoStats {
	m := &r.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.byPrefix)}
}

// partition returns the clustering at the given certainty, memoized.
// Concurrent misses on one prefix each compute it; the results are equal.
func (r *Resolution) partition(theta float64) *partition {
	accepted := len(r.AtCertainty(theta))
	m := &r.memo
	m.mu.Lock()
	p, ok := m.byPrefix[accepted]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	if ok {
		return p
	}
	p = r.queryIndex().partition(accepted)
	m.mu.Lock()
	if m.byPrefix == nil || len(m.byPrefix) >= maxMemoEntries {
		m.byPrefix = make(map[int]*partition)
	}
	m.byPrefix[accepted] = p
	m.mu.Unlock()
	return p
}

// partition clusters the records under the first accepted matches: a dense
// union-find over record positions, then two passes in BookID order that
// number the components and fill their member lists.
func (ix *queryIndex) partition(accepted int) *partition {
	n := len(ix.byBook)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < 2*accepted; i += 2 {
		if a, b := find(ix.ends[i]), find(ix.ends[i+1]); a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}

	p := &partition{label: make([]int32, n), members: make([]int32, n)}
	for i := range p.label {
		p.label[i] = -1
	}
	entities := int32(0)
	for _, rec := range ix.byBook {
		root := find(rec)
		if p.label[root] < 0 {
			p.label[root] = entities
			entities++
		}
		p.label[rec] = p.label[root]
	}
	p.start = make([]int32, entities+1)
	for _, e := range p.label {
		p.start[e+1]++
	}
	for e := int32(0); e < entities; e++ {
		p.start[e+1] += p.start[e]
	}
	next := parent[:entities] // the union-find is done; reuse it as fill cursors
	copy(next, p.start)
	for _, rec := range ix.byBook {
		e := p.label[rec]
		p.members[next[e]] = rec
		next[e]++
	}
	return p
}

// Clusters resolves the matches at the given certainty into entities:
// connected components over the accepted pairs, with singletons for
// unmatched records, ordered by their smallest BookID. This is the
// query-time crisp view of the uncertain resolution, materialized in full:
// the partition is memoized, the merged views are built per call and not
// retained. Safe for concurrent use.
func (r *Resolution) Clusters(theta float64) []*Entity {
	p := r.partition(theta)
	entities := make([]*Entity, p.entities())
	for e := range entities {
		entities[e] = r.view(p.of(int32(e)))
	}
	return entities
}

// EntityCounts returns how many entities the collection resolves into at
// the given certainty, and how many of them merge two or more reports,
// without building any entity.
func (r *Resolution) EntityCounts(theta float64) (entities, multiReport int) {
	p := r.partition(theta)
	for e := 0; e < p.entities(); e++ {
		if p.start[e+1]-p.start[e] > 1 {
			multiReport++
		}
	}
	return p.entities(), multiReport
}

// EntityOf returns the resolved entity containing the given report at the
// given certainty.
func (r *Resolution) EntityOf(bookID int64, theta float64) (*Entity, bool) {
	rec := r.Collection.Index(bookID)
	if rec < 0 {
		return nil, false
	}
	p := r.partition(theta)
	return r.view(p.of(p.label[rec])), true
}

// view builds the merged view of one entity from its member records. A
// value repeated within one report counts once.
func (r *Resolution) view(members []int32) *Entity {
	e := &Entity{Reports: make([]int64, len(members))}
	total := 0
	for i, m := range members {
		rec := r.Collection.Records[m]
		e.Reports[i] = rec.BookID
		total += len(rec.Items)
	}
	items := make([]record.Item, 0, total) // sized up front: one allocation, not a regrowing append
	for _, m := range members {
		rec := r.Collection.Records[m]
		own := len(items)
		for _, it := range rec.Items {
			if !slices.Contains(items[own:], it) {
				items = append(items, it)
			}
		}
	}
	slices.SortFunc(items, func(a, b record.Item) int {
		return cmp.Or(cmp.Compare(a.Type, b.Type), strings.Compare(a.Value, b.Value))
	})
	// One ValueSupport per distinct item, all types in one array (it never
	// regrows, so the per-type slices cut from it stay valid).
	values := make([]ValueSupport, 0, len(items))
	e.Values = make(map[record.ItemType][]ValueSupport, min(len(items), record.NumItemTypes))
	for lo := 0; lo < len(items); {
		t, first, hi := items[lo].Type, len(values), lo
		for ; hi < len(items) && items[hi].Type == t; hi++ {
			if hi > lo && items[hi].Value == items[hi-1].Value {
				values[len(values)-1].Reports++
			} else {
				values = append(values, ValueSupport{Value: items[hi].Value, Reports: 1})
			}
		}
		// Most supported first; the value order breaks ties.
		vs := values[first:len(values):len(values)]
		slices.SortStableFunc(vs, func(a, b ValueSupport) int { return cmp.Compare(b.Reports, a.Reports) })
		e.Values[t] = vs
		lo = hi
	}
	return e
}

// Narrative renders a short biographical narrative from the entity's
// merged view — the paper's motivating application: weaving victim
// reports into a person's story.
func (e *Entity) Narrative() string {
	var b strings.Builder
	first, _ := e.Best(record.FirstName)
	last, _ := e.Best(record.LastName)
	name := strings.TrimSpace(first + " " + last)
	if name == "" {
		name = "An unidentified person"
	}
	b.WriteString(name)

	if year, ok := e.Best(record.BirthYear); ok {
		if city, okCity := e.Best(record.BirthCity); okCity {
			fmt.Fprintf(&b, " was born in %s in %s", year, city)
		} else {
			fmt.Fprintf(&b, " was born in %s", year)
		}
	}
	if father, ok := e.Best(record.FatherName); ok {
		fmt.Fprintf(&b, ", child of %s", father)
		if mother, okM := e.Best(record.MotherName); okM {
			fmt.Fprintf(&b, " and %s", mother)
		}
	}
	if spouse, ok := e.Best(record.SpouseName); ok {
		fmt.Fprintf(&b, ", married to %s", spouse)
	}
	if perm, ok := e.Best(record.PermCity); ok {
		fmt.Fprintf(&b, ". They lived in %s", perm)
	}
	if war, ok := e.Best(record.WarCity); ok {
		fmt.Fprintf(&b, "; during the war they were in %s", war)
	}
	if death, ok := e.Best(record.DeathCity); ok {
		fmt.Fprintf(&b, ". They perished in %s", death)
	}
	fmt.Fprintf(&b, ". The story is told by %d report(s).", len(e.Reports))
	return b.String()
}
