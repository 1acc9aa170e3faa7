package mfiblocks

import (
	"slices"
	"sync"

	"repro/internal/fpgrowth"
	"repro/internal/record"
	"repro/internal/similarity"
)

// Block is one soft cluster: the maximal frequent itemset that induced it,
// the records supporting it, and its score. Blocks may overlap.
type Block struct {
	// Key is the MFI (item ids into the run's dictionary) shared by all
	// member records — the automatically discovered blocking key.
	Key []int
	// Members are positional record indices into the collection.
	Members []int
	// Score is the block's quality under the configured scoring
	// function, in [0,1].
	Score float64
	// MinSup is the iteration (support level) that produced the block.
	MinSup int
}

// Size returns the number of member records.
func (b *Block) Size() int { return len(b.Members) }

// Pairs appends all member pairs (as collection indices) to dst.
func (b *Block) Pairs(dst [][2]int) [][2]int {
	for i := 0; i < len(b.Members); i++ {
		for j := i + 1; j < len(b.Members); j++ {
			dst = append(dst, [2]int{b.Members[i], b.Members[j]})
		}
	}
	return dst
}

// scorer computes block scores.
type scorer struct {
	cfg      *Config
	dict     *record.Dictionary
	txns     *fpgrowth.Transactions // per-record sorted item ids, arena form
	records  []*record.Record
	itemSim  similarity.ItemSim
	useFsim  bool
	weighted bool
}

func newScorer(cfg *Config, dict *record.Dictionary, txns *fpgrowth.Transactions, records []*record.Record) *scorer {
	return &scorer{
		cfg:      cfg,
		dict:     dict,
		txns:     txns,
		records:  records,
		itemSim:  similarity.ItemSim{Geo: cfg.Geo},
		useFsim:  cfg.ExpertSim,
		weighted: cfg.ExpertWeights,
	}
}

// score returns the block's quality. The default is the (optionally
// type-weighted) cluster Jaccard: weight of items shared by every member
// over weight of items held by any member. This score is set-monotonic:
// growing the cluster can only shrink it. The ExpertSim variant averages a
// soft Jaccard built on fsim over all member pairs, which is not
// set-monotonic (Section 6.5 discusses the consequences).
func (s *scorer) score(members []int, js *jaccardScratch) float64 {
	if len(members) < 2 {
		return 0
	}
	if s.useFsim {
		return s.softScore(members)
	}
	return s.clusterJaccard(members, js)
}

// jaccardScratch is one goroutine's counting state for clusterJaccard.
// count is indexed by item id and all zero between calls; touched lists
// the ids the current call raised from zero, which is also what resets
// them. Block-building workers own one each; the zero value is ready.
type jaccardScratch struct {
	count   []int32
	touched []int32
}

// clusterJaccard computes the (optionally type-weighted) cluster Jaccard
// in one counting pass over the members' transactions: the union is the
// items touched, the intersection the items every member counted. Zero
// allocations at steady state — the alloc guard in fastpath_test.go holds
// it there. Under ExpertWeights the weights are summed in ascending
// item-id order, which keeps weighted scores bit-reproducible across runs
// (summing in first-touched order would make a score depend on member
// order, and could flip enforceNG ties); unweighted, every weight is 1
// and the sums are exact counts in any order.
func (s *scorer) clusterJaccard(members []int, js *jaccardScratch) float64 {
	if len(js.count) <= s.txns.MaxItem() {
		js.count = make([]int32, s.txns.MaxItem()+1)
	}
	count, touched := js.count, js.touched[:0]
	for _, m := range members {
		for _, id := range s.txns.Txn(m) {
			if count[id] == 0 {
				touched = append(touched, id)
			}
			count[id]++
		}
	}
	js.touched = touched
	if s.weighted {
		slices.Sort(touched)
	}
	all := int32(len(members))
	var wInter, wUnion float64
	for _, id := range touched {
		w := s.weight(int(id))
		wUnion += w
		if count[id] == all {
			wInter += w
		}
		count[id] = 0
	}
	if wUnion == 0 {
		return 0
	}
	return wInter / wUnion
}

func (s *scorer) weight(itemID int) float64 {
	if !s.weighted {
		return 1
	}
	return s.cfg.Weight(s.dict.TypeOf(itemID))
}

// softScore averages the pairwise soft Jaccard (greedy best-match under
// fsim) over all member pairs.
func (s *scorer) softScore(members []int) float64 {
	var sum float64
	n := 0
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			sum += s.softJaccard(s.records[members[i]], s.records[members[j]])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// softCand is one cross-record item pair with a positive fsim.
type softCand struct {
	sim  float64
	i, j int32
}

// softScratch is one goroutine's softJaccard state: the candidate list
// and the used-item bitmasks.
type softScratch struct {
	cands []softCand
	usedA []uint64
	usedB []uint64
}

var softScratchPool = sync.Pool{New: func() any { return new(softScratch) }}

// softJaccard greedily matches items of equal type across two records by
// descending fsim and returns sum(sim) / (|a| + |b| - matched). The
// greedy order is one sort by (sim desc, i asc, j asc) followed by a
// used-bitmask scan — the same matching the quadratic
// rescan-and-remove predecessor produced (it scanned candidates in
// (i, j)-ascending order and took the first maximum), locked by the
// golden test in block_test.go.
func (s *scorer) softJaccard(a, b *record.Record) float64 {
	st := softScratchPool.Get().(*softScratch)
	cands := st.cands[:0]
	for i, ia := range a.Items {
		for j, ib := range b.Items {
			if ia.Type != ib.Type {
				continue
			}
			if sim := s.itemSim.Compare(ia, ib); sim > 0 {
				cands = append(cands, softCand{sim, int32(i), int32(j)})
			}
		}
	}
	slices.SortFunc(cands, func(x, y softCand) int {
		switch {
		case x.sim > y.sim:
			return -1
		case x.sim < y.sim:
			return 1
		}
		if x.i != y.i {
			return int(x.i - y.i)
		}
		return int(x.j - y.j)
	})
	usedA := clearedMask(st.usedA, len(a.Items))
	usedB := clearedMask(st.usedB, len(b.Items))
	var total float64
	matched := 0
	for _, c := range cands {
		if usedA[c.i>>6]&(1<<uint(c.i&63)) != 0 || usedB[c.j>>6]&(1<<uint(c.j&63)) != 0 {
			continue
		}
		usedA[c.i>>6] |= 1 << uint(c.i&63)
		usedB[c.j>>6] |= 1 << uint(c.j&63)
		total += c.sim
		matched++
	}
	st.cands, st.usedA, st.usedB = cands, usedA, usedB
	softScratchPool.Put(st)
	denom := float64(len(a.Items) + len(b.Items) - matched)
	if denom <= 0 {
		return 0
	}
	return total / denom
}

// clearedMask returns buf resized to cover n bits, zeroed.
func clearedMask(buf []uint64, n int) []uint64 {
	words := (n + 63) >> 6
	if cap(buf) < words {
		buf = make([]uint64, words)
		return buf
	}
	buf = buf[:words]
	for w := range buf {
		buf[w] = 0
	}
	return buf
}
