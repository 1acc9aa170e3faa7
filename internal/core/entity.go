package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/mfiblocks"
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

// queryIndex is what the query layer derives once from a finished
// resolution, on the first query: nothing here is built by Run/RunStream,
// and nothing in it changes afterwards.
//
// Matches are sorted by score, so one union-find over them in order is
// single-linkage agglomeration and the clustering at every certainty is a
// cut through one merge forest. A record is named by its rank in ascending
// BookID order; nodes 0…n−1 are the records and node n+k is the k-th union
// that joined two entities, so a parent is numbered above its children and
// a certainty admitting u unions sees exactly the nodes below n+u.
type queryIndex struct {
	// byBook maps a rank to the record's position in Collection.Records.
	byBook []int32
	// parent is a node's parent, noParent for a root.
	parent []int32
	// least is the smallest rank under a node: the member an entity is
	// named and ordered by.
	least []int32
	// leaves lists the ranks depth-first, so node v covers
	// leaves[lo[v]:hi[v]] — in forest order, not ascending.
	leaves, lo, hi []int32
	// at[k] is the index in Matches of union k, ascending; multi[u] counts
	// the entities of two or more reports after the first u unions.
	at, multi []int32
	// first and last are the name index: names.FoldKey of a first or last
	// name -> the ranks carrying it.
	first, last map[string][]int32
	// blockIDs[blockAt[i]:blockAt[i+1]] are the indices into
	// Blocking.Blocks of the kept blocks holding the record at position i
	// of Collection.Records, ascending. Empty without a blocking result.
	blockAt, blockIDs []int32
}

// noParent is above every node, so no cut admits it.
const noParent = math.MaxInt32

func (r *Resolution) queryIndex() *queryIndex {
	r.queryOnce.Do(func() {
		r.queryIdx = newQueryIndex(r.Collection.Records, r.Matches)
		if r.Blocking != nil {
			r.queryIdx.blockAt, r.queryIdx.blockIDs = recordBlocks(r.Collection.Len(), r.Blocking.Blocks)
		}
	})
	return r.queryIdx
}

// recordBlocks lists the blocks holding each of n records: the indices
// into blocks of record i's, ascending, are ids[at[i]:at[i+1]]. Block
// members are positions in the resolved collection.
func recordBlocks(n int, blocks []*mfiblocks.Block) (at, ids []int32) {
	at = make([]int32, n+1)
	for _, b := range blocks {
		for _, m := range b.Members {
			at[m+1]++
		}
	}
	for i := 1; i <= n; i++ {
		at[i] += at[i-1]
	}
	ids = make([]int32, at[n])
	next := slices.Clone(at[:n])
	for k, b := range blocks {
		for _, m := range b.Members {
			ids[next[m]] = int32(k)
			next[m]++
		}
	}
	return at, ids
}

// blockScore is the best score of a block holding both the records at
// positions ia and ib — their pair's blocking similarity — or 0 when no
// block holds both: one merge of the two records' ascending block lists.
func (ix *queryIndex) blockScore(blocks []*mfiblocks.Block, ia, ib int) float64 {
	as := ix.blockIDs[ix.blockAt[ia]:ix.blockAt[ia+1]]
	bs := ix.blockIDs[ix.blockAt[ib]:ix.blockAt[ib+1]]
	best := 0.0
	for len(as) > 0 && len(bs) > 0 {
		switch {
		case as[0] < bs[0]:
			as = as[1:]
		case as[0] > bs[0]:
			bs = bs[1:]
		default:
			best = max(best, blocks[as[0]].Score)
			as, bs = as[1:], bs[1:]
		}
	}
	return best
}

// newQueryIndex ranks the records, indexes their names and builds the
// merge forest.
func newQueryIndex(recs []*record.Record, matches []RankedMatch) *queryIndex {
	n := len(recs)
	ix := &queryIndex{
		byBook: make([]int32, n),
		parent: make([]int32, n, 2*n), // n leaves have fewer than n unions
		least:  make([]int32, n, 2*n),
		leaves: make([]int32, n),
		multi:  []int32{0},
		first:  make(map[string][]int32),
		last:   make(map[string][]int32),
	}
	for i := range ix.byBook {
		ix.byBook[i] = int32(i)
	}
	slices.SortFunc(ix.byBook, func(a, b int32) int {
		return cmp.Compare(recs[a].BookID, recs[b].BookID)
	})
	for i, rec := range ix.byBook {
		for _, it := range recs[rec].Items {
			switch it.Type {
			case record.FirstName:
				post(ix.first, it.Value, int32(i))
			case record.LastName:
				post(ix.last, it.Value, int32(i))
			}
		}
	}

	// The union-find runs over forest nodes: a set's root is its
	// newest union.
	top := make([]int32, n, 2*n)
	for v := range top {
		top[v], ix.parent[v], ix.least[v] = int32(v), noParent, int32(v)
	}
	find := func(bookID int64) int32 {
		x, _ := ix.rank(recs, bookID)
		for top[x] != x {
			top[x] = top[top[x]]
			x = top[x]
		}
		return x
	}
	for i, m := range matches {
		a, b := find(m.Pair.A), find(m.Pair.B)
		if a == b {
			continue
		}
		w := int32(len(top))
		top[a], top[b] = w, w
		top = append(top, w)
		ix.parent[a], ix.parent[b] = w, w
		ix.parent = append(ix.parent, noParent)
		ix.least = append(ix.least, min(ix.least[a], ix.least[b]))
		ix.at = append(ix.at, int32(i))
		// Two records make a multi-report entity, two multi-report
		// entities become one, a record joining one changes nothing.
		grown := ix.multi[len(ix.multi)-1] + 1
		if a >= int32(n) {
			grown--
		}
		if b >= int32(n) {
			grown--
		}
		ix.multi = append(ix.multi, grown)
	}

	// Lay the leaves out: sizes bottom-up (kept in hi), then ranges
	// top-down — a node is placed before its children, and from then on
	// its hi is the cursor they take their ranges from.
	nodes := len(ix.parent)
	ix.lo, ix.hi = make([]int32, nodes), make([]int32, nodes)
	for v := 0; v < nodes; v++ {
		if v < n {
			ix.hi[v] = 1
		}
		if p := ix.parent[v]; p != noParent {
			ix.hi[p] += ix.hi[v]
		}
	}
	next := int32(0) // where the next root's range starts
	for v := nodes - 1; v >= 0; v-- {
		size := ix.hi[v]
		if p := ix.parent[v]; p == noParent {
			ix.lo[v], next = next, next+size
		} else {
			ix.lo[v], ix.hi[p] = ix.hi[p], ix.hi[p]+size
		}
		ix.hi[v] = ix.lo[v]
		if v < n {
			ix.leaves[ix.lo[v]] = int32(v)
			ix.hi[v]++
		}
	}
	return ix
}

// post appends rec to the postings of name, once per record.
func post(postings map[string][]int32, name string, rec int32) {
	k := names.FoldKey(name)
	if ps := postings[k]; len(ps) == 0 || ps[len(ps)-1] != rec {
		postings[k] = append(ps, rec)
	}
}

// rank finds a BookID's rank.
func (ix *queryIndex) rank(recs []*record.Record, bookID int64) (int32, bool) {
	i, ok := slices.BinarySearchFunc(ix.byBook, bookID, func(rec int32, id int64) int {
		return cmp.Compare(recs[rec].BookID, id)
	})
	return int32(i), ok
}

// cut turns a certainty into the one number the forest needs: the nodes
// below limit exist. It counts the unions among the accepted matches, so a
// run of tied scores is admitted whole and NaN, which accepts nothing, is
// the forest of singletons like any certainty above the best score.
func (r *Resolution) cut(theta float64) (ix *queryIndex, limit int32) {
	ix = r.queryIndex()
	unions, _ := slices.BinarySearch(ix.at, int32(len(r.AtCertainty(theta))))
	return ix, int32(len(ix.byBook) + unions)
}

// entity climbs from a node to the entity containing it. The climb is as
// long as the entity's merge history is deep, at most its size; the view
// of that entity costs more.
func (ix *queryIndex) entity(v, limit int32) int32 {
	for p := ix.parent[v]; p < limit; p = ix.parent[v] {
		v = p
	}
	return v
}

// heads lists every entity by its smallest member, ascending — the order
// all queries answer in.
func (ix *queryIndex) heads(limit int32) []int32 {
	out := make([]int32, 0, 2*len(ix.byBook)-int(limit)) // n − unions entities
	for v, p := range ix.parent[:limit] {
		if p >= limit {
			out = append(out, ix.least[v])
		}
	}
	slices.Sort(out)
	return out
}

// Clusters resolves the matches at the given certainty into entities:
// connected components over the accepted pairs, with singletons for
// unmatched records, ordered by their smallest BookID. This is the
// query-time crisp view of the uncertain resolution, materialized in full;
// the merged views are built per call. Safe for concurrent use.
func (r *Resolution) Clusters(theta float64) []*Entity {
	ix, limit := r.cut(theta)
	heads := ix.heads(limit)
	entities := make([]*Entity, len(heads))
	for i, h := range heads {
		entities[i] = r.view(ix, ix.entity(h, limit))
	}
	return entities
}

// EntityCounts returns how many entities the collection resolves into at
// the given certainty, and how many of them merge two or more reports,
// without building any entity.
func (r *Resolution) EntityCounts(theta float64) (entities, multiReport int) {
	ix, limit := r.cut(theta)
	n := len(ix.byBook)
	unions := int(limit) - n
	return n - unions, int(ix.multi[unions])
}

// EntityOf returns the resolved entity containing the given report at the
// given certainty.
func (r *Resolution) EntityOf(bookID int64, theta float64) (*Entity, bool) {
	ix, limit := r.cut(theta)
	rec, ok := ix.rank(r.Collection.Records, bookID)
	if !ok {
		return nil, false
	}
	return r.view(ix, ix.entity(rec, limit)), true
}

// view builds the merged view of one entity from the records under its
// node. A value repeated within one report counts once.
func (r *Resolution) view(ix *queryIndex, node int32) *Entity {
	members := ix.leaves[ix.lo[node]:ix.hi[node]]
	e := &Entity{Reports: make([]int64, len(members))}
	total := 0
	for i, m := range members {
		rec := r.Collection.Records[ix.byBook[m]]
		e.Reports[i] = rec.BookID
		total += len(rec.Items)
	}
	slices.Sort(e.Reports)
	items := make([]record.Item, 0, total) // sized up front: one allocation, not a regrowing append
	for _, m := range members {
		rec := r.Collection.Records[ix.byBook[m]]
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
