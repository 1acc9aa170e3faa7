package core

import (
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/names"
	"repro/internal/record"
)

// oracle is the query layer as it was before the partition memo and the
// name index: a map-based union-find over BookIDs, a merged view built and
// cached for every entity, a linear scan of all entities per Search. The
// code below is the parent commit's entity.go and search.go verbatim, with
// the receiver renamed and the cache fields moved here; the equivalence
// tests hold Clusters, EntityOf and Search to it.
type oracle struct {
	*Resolution
	clusterMu    sync.Mutex
	clusterCache map[float64][]*Entity
}

// maxClusterCacheEntries bounds the per-certainty Clusters memo so a
// client sweeping thresholds cannot grow the resolution unboundedly.
const maxClusterCacheEntries = 64

// Clusters resolves the matches at the given certainty into entities:
// connected components over the accepted pairs, with singletons for
// unmatched records. This is the query-time crisp view of the uncertain
// resolution. Results are memoized per certainty — repeated server
// queries at one threshold skip the union-find — and must be treated as
// read-only. Safe for concurrent use.
func (r *oracle) Clusters(theta float64) []*Entity {
	if math.IsNaN(theta) {
		// NaN is not a usable map key (NaN != NaN); compute uncached.
		return r.clusters(theta)
	}
	r.clusterMu.Lock()
	if ents, ok := r.clusterCache[theta]; ok {
		r.clusterMu.Unlock()
		return ents
	}
	r.clusterMu.Unlock()
	ents := r.clusters(theta)
	r.clusterMu.Lock()
	if r.clusterCache == nil || len(r.clusterCache) >= maxClusterCacheEntries {
		r.clusterCache = make(map[float64][]*Entity)
	}
	r.clusterCache[theta] = ents
	r.clusterMu.Unlock()
	return ents
}

func (r *oracle) clusters(theta float64) []*Entity {
	accepted := r.AtCertainty(theta)
	uf := newUnionFind()
	for _, rec := range r.Collection.Records {
		uf.find(rec.BookID)
	}
	for _, m := range accepted {
		uf.union(m.Pair.A, m.Pair.B)
	}
	groups := make(map[int64][]int64)
	for _, rec := range r.Collection.Records {
		root := uf.find(rec.BookID)
		groups[root] = append(groups[root], rec.BookID)
	}
	roots := make([]int64, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	entities := make([]*Entity, 0, len(groups))
	for _, root := range roots {
		ids := groups[root]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		entities = append(entities, r.buildEntity(ids))
	}
	return entities
}

// EntityOf returns the resolved entity containing the given report at the
// given certainty.
func (r *oracle) EntityOf(bookID int64, theta float64) (*Entity, bool) {
	for _, e := range r.Clusters(theta) {
		for _, id := range e.Reports {
			if id == bookID {
				return e, true
			}
		}
	}
	return nil, false
}

func (r *oracle) buildEntity(ids []int64) *Entity {
	e := &Entity{Reports: ids, Values: make(map[record.ItemType][]ValueSupport)}
	counts := make(map[record.ItemType]map[string]int)
	for _, id := range ids {
		rec := r.Collection.ByID(id)
		if rec == nil {
			continue
		}
		seen := make(map[string]bool)
		for _, it := range rec.Items {
			key := it.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if counts[it.Type] == nil {
				counts[it.Type] = make(map[string]int)
			}
			counts[it.Type][it.Value]++
		}
	}
	for t, vs := range counts {
		for v, c := range vs {
			e.Values[t] = append(e.Values[t], ValueSupport{Value: v, Reports: c})
		}
		sort.Slice(e.Values[t], func(i, j int) bool {
			if e.Values[t][i].Reports != e.Values[t][j].Reports {
				return e.Values[t][i].Reports > e.Values[t][j].Reports
			}
			return e.Values[t][i].Value < e.Values[t][j].Value
		})
	}
	return e
}

// unionFind is a path-compressing union-find over BookIDs.
type unionFind struct {
	parent map[int64]int64
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[int64]int64)}
}

func (u *unionFind) find(x int64) int64 {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p != x {
		u.parent[x] = u.find(p)
	}
	return u.parent[x]
}

func (u *unionFind) union(a, b int64) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// Search resolves the collection at the query's certainty and returns the
// entities matching the name query, ordered as produced by Clusters.
// Without a deterministic query (e.g. the example record is missed), a
// record's information may surface under more than one spelling; the
// equivalence classes absorb the registered variants — the paper's point
// that a simple "first name = Guido AND last name = Foa" query misses the
// "Foy" record.
func (r *oracle) Search(q Query) []*Entity {
	var out []*Entity
	for _, e := range r.Clusters(q.Certainty) {
		if entityMatches(e, q) {
			out = append(out, e)
		}
	}
	return out
}

func entityMatches(e *Entity, q Query) bool {
	if q.First != "" && !anyNameMatches(e.Values[record.FirstName], q.First, true) {
		return false
	}
	if q.Last != "" && !anyNameMatches(e.Values[record.LastName], q.Last, false) {
		return false
	}
	return true
}

func anyNameMatches(vs []ValueSupport, query string, useClasses bool) bool {
	for _, v := range vs {
		if strings.EqualFold(v.Value, query) {
			return true
		}
		if useClasses && names.SameClass(v.Value, query) {
			return true
		}
	}
	return false
}
