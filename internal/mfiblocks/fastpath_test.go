package mfiblocks

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
)

// randomScoringRecords builds records whose item values collide heavily
// — names from a tiny pool of near-identical strings, tightly packed
// birth years, cities that all compare equal under constGeo — so both
// the counting cluster Jaccard and the sorted soft Jaccard face the
// maximum number of duplicate items and tied similarities.
func randomScoringRecords(rng *rand.Rand, n int) []*record.Record {
	firsts := []string{"Anna", "Anne", "Anja", "Hanna"}
	lasts := []string{"Levi", "Levy", "Foa"}
	years := []string{"1918", "1919", "1920", "1921"}
	cities := []string{"Roma", "Milano", "Torino"}
	recs := make([]*record.Record, n)
	for i := range recs {
		r := mkRec(int64(i + 1))
		r.Items = append(r.Items, it(record.FirstName, firsts[rng.Intn(len(firsts))]))
		if rng.Intn(3) > 0 {
			r.Items = append(r.Items, it(record.LastName, lasts[rng.Intn(len(lasts))]))
		}
		if rng.Intn(2) == 0 {
			r.Items = append(r.Items, it(record.BirthYear, years[rng.Intn(len(years))]))
		}
		if rng.Intn(2) == 0 {
			r.Items = append(r.Items, it(record.BirthCity, cities[rng.Intn(len(cities))]))
		}
		recs[i] = r
	}
	return recs
}

// refClusterJaccard is the map-based first cluster Jaccard, kept as a
// test oracle. Weights are summed in ascending item-id order — the same
// order the counting pass uses — so weighted comparisons are exact, not
// epsilon-based.
func refClusterJaccard(s *scorer, members []int) float64 {
	count := make(map[int]int)
	for _, m := range members {
		for _, id := range s.txns.Txn(m) {
			count[int(id)]++
		}
	}
	maxID := -1
	for id := range count {
		if id > maxID {
			maxID = id
		}
	}
	var wInter, wUnion float64
	for id := 0; id <= maxID; id++ {
		c, ok := count[id]
		if !ok {
			continue
		}
		w := s.weight(id)
		wUnion += w
		if c == len(members) {
			wInter += w
		}
	}
	if wUnion == 0 {
		return 0
	}
	return wInter / wUnion
}

// mergeClusterJaccard is the k-way sorted-merge kernel the counting pass
// replaced, kept as the second oracle: the running intersection shrinks
// in place and the running union ping-pongs between two buffers.
func mergeClusterJaccard(s *scorer, members []int) float64 {
	first := s.txns.Txn(members[0])
	inter := append([]int32(nil), first...)
	union := append([]int32(nil), first...)
	var next []int32
	for _, m := range members[1:] {
		txn := s.txns.Txn(m)
		inter = intersectSorted32(inter, txn)
		next = unionSorted32(next[:0], union, txn)
		union, next = next, union
	}
	if !s.weighted {
		if len(union) == 0 {
			return 0
		}
		return float64(len(inter)) / float64(len(union))
	}
	var wInter, wUnion float64
	for _, id := range inter {
		wInter += s.weight(int(id))
	}
	for _, id := range union {
		wUnion += s.weight(int(id))
	}
	if wUnion == 0 {
		return 0
	}
	return wInter / wUnion
}

// intersectSorted32 intersects two ascending lists, writing the result
// into dst's prefix.
func intersectSorted32(dst, b []int32) []int32 {
	i, j, k := 0, 0, 0
	for i < len(dst) && j < len(b) {
		switch {
		case dst[i] == b[j]:
			dst[k] = dst[i]
			k++
			i++
			j++
		case dst[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst[:k]
}

// unionSorted32 merges two ascending duplicate-free lists into dst
// (cleared by the caller), keeping the result ascending and
// duplicate-free.
func unionSorted32(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// TestClusterJaccardMatchesReference cross-checks the counting scorer
// against both oracles — the map-based one and the merge kernel it
// replaced — over randomized tie-heavy clusters, weighted and
// unweighted, bit-for-bit, through one scratch reused across every call.
func TestClusterJaccardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := randomScoringRecords(rng, 60)
	for _, weighted := range []bool{false, true} {
		cfg := NewConfig()
		cfg.ExpertWeights = weighted
		sc := scorerFixture(t, cfg, recs)
		var js jaccardScratch
		for trial := 0; trial < 200; trial++ {
			size := 2 + rng.Intn(6)
			members := rng.Perm(len(recs))[:size]
			got := sc.clusterJaccard(members, &js)
			if want := refClusterJaccard(sc, members); got != want {
				t.Fatalf("weighted=%v trial=%d members=%v: counting %v != map reference %v",
					weighted, trial, members, got, want)
			}
			if want := mergeClusterJaccard(sc, members); got != want {
				t.Fatalf("weighted=%v trial=%d members=%v: counting %v != merge kernel %v",
					weighted, trial, members, got, want)
			}
		}
		for id, c := range js.count {
			if c != 0 {
				t.Fatalf("weighted=%v: scratch count[%d] = %d between calls", weighted, id, c)
			}
		}
	}
}

// TestClusterJaccardAllocs is the steady-state guard: once the scratch
// has grown, scoring a cluster — weighted or not — performs zero heap
// allocations per call.
func TestClusterJaccardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomScoringRecords(rng, 40)
	members := []int{0, 3, 7, 11, 19, 23, 31, 39}
	for _, weighted := range []bool{false, true} {
		cfg := NewConfig()
		cfg.ExpertWeights = weighted
		sc := scorerFixture(t, cfg, recs)
		var js jaccardScratch
		sc.score(members, &js) // grow the scratch
		allocs := testing.AllocsPerRun(100, func() { sc.score(members, &js) })
		if allocs != 0 {
			t.Errorf("weighted=%v: clusterJaccard allocates %v/op, want 0", weighted, allocs)
		}
	}
}

// TestWeightedJaccardRunTwiceDeterministic is the regression test for
// a map-order bug: under ExpertWeights the first scorer summed weights
// in map-iteration order, so tied block scores could flip enforceNG
// admission between runs. Two full runs over the tie-heavy fixture must
// agree bit-for-bit.
func TestWeightedJaccardRunTwiceDeterministic(t *testing.T) {
	coll := tieHeavyCollection(t)
	cfg := NewConfig()
	cfg.ExpertWeights = true
	cfg.PruneFraction = 0

	first, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("tie-heavy collection produced no pairs under expert weights")
	}
	for run := 0; run < 3; run++ {
		again, err := Run(cfg, coll)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Pairs, again.Pairs) {
			t.Fatalf("run %d: weighted Pairs differ across runs", run)
		}
		if !reflect.DeepEqual(first.PairScores, again.PairScores) {
			t.Fatalf("run %d: weighted PairScores differ across runs", run)
		}
	}
}

// refSoftJaccard is the quadratic rescan-and-remove greedy matcher the
// sorted rewrite replaced: candidates enumerated i-major, the first
// strict maximum taken each round. The rewrite must reproduce it
// exactly, ties included.
func refSoftJaccard(s *scorer, a, b *record.Record) float64 {
	type cand struct {
		sim  float64
		i, j int
	}
	var cands []cand
	for i, ia := range a.Items {
		for j, ib := range b.Items {
			if ia.Type != ib.Type {
				continue
			}
			if sim := s.itemSim.Compare(ia, ib); sim > 0 {
				cands = append(cands, cand{sim, i, j})
			}
		}
	}
	usedA := make([]bool, len(a.Items))
	usedB := make([]bool, len(b.Items))
	var total float64
	matched := 0
	for {
		best := -1
		for k, c := range cands {
			if usedA[c.i] || usedB[c.j] {
				continue
			}
			if best == -1 || c.sim > cands[best].sim {
				best = k
			}
		}
		if best == -1 {
			break
		}
		usedA[cands[best].i] = true
		usedB[cands[best].j] = true
		total += cands[best].sim
		matched++
	}
	denom := float64(len(a.Items) + len(b.Items) - matched)
	if denom <= 0 {
		return 0
	}
	return total / denom
}

// TestSoftJaccardGolden locks the greedy tie order. The fixture's four
// birth-year candidates tie at similarity 0.5: matching (0,0) first —
// the (sim desc, i asc, j asc) order — blocks (1,0), leaves (1,1), and
// yields exactly 0.5; any other tie resolution yields 1/6. The golden
// value therefore fails if the deterministic order drifts.
func TestSoftJaccardGolden(t *testing.T) {
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = constGeo{km: 0}
	a := mkRec(1, it(record.BirthYear, "1900"), it(record.BirthYear, "1950"))
	b := mkRec(2, it(record.BirthYear, "1925"), it(record.BirthYear, "1975"))
	sc := scorerFixture(t, cfg, []*record.Record{a, b})

	// Candidates: (0,0)=0.5, (1,0)=0.5, (1,1)=0.5; (0,1) is 0 (75-year
	// gap) and never enters. Greedy takes (0,0) then (1,1).
	const want = 0.5
	for run := 0; run < 50; run++ {
		if got := sc.softJaccard(a, b); got != want {
			t.Fatalf("run %d: softJaccard = %v, want golden %v", run, got, want)
		}
	}
	if ref := refSoftJaccard(sc, a, b); ref != want {
		t.Fatalf("reference greedy = %v, want %v — fixture no longer order-sensitive", ref, want)
	}
}

// TestSoftJaccardMatchesReference cross-checks the sorted bitmask
// matcher against the quadratic greedy oracle over randomized records
// dense with tied similarities (identical name pools, constant-distance
// cities), bit-for-bit.
func TestSoftJaccardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	recs := randomScoringRecords(rng, 50)
	cfg := NewConfig()
	cfg.ExpertSim = true
	cfg.Geo = constGeo{km: 30} // every city pair ties at 0.7
	sc := scorerFixture(t, cfg, recs)
	for trial := 0; trial < 300; trial++ {
		a := recs[rng.Intn(len(recs))]
		b := recs[rng.Intn(len(recs))]
		got := sc.softJaccard(a, b)
		want := refSoftJaccard(sc, a, b)
		if got != want {
			t.Fatalf("trial %d (%v vs %v): sorted %v != greedy oracle %v",
				trial, a.Items, b.Items, got, want)
		}
	}
}

// TestScorerConcurrentUse exercises one shared scorer from many
// goroutines, each with a scratch of its own as the block-building
// workers have: results identical to the serial answers. Run with -race
// this doubles as the data-race certification for the scorer.
func TestScorerConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randomScoringRecords(rng, 48)
	cfg := NewConfig()
	cfg.ExpertWeights = true
	sc := scorerFixture(t, cfg, recs)

	clusters := make([][]int, 64)
	want := make([]float64, len(clusters))
	var js jaccardScratch
	for i := range clusters {
		clusters[i] = rng.Perm(len(recs))[:2+rng.Intn(6)]
		want[i] = sc.score(clusters[i], &js)
	}

	got := make([]float64, len(clusters))
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var js jaccardScratch
			for i := w; i < len(clusters); i += 8 {
				got[i] = sc.score(clusters[i], &js)
			}
			done <- w
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for i := range clusters {
		if got[i] != want[i] {
			t.Fatalf("cluster %d: concurrent score %v != serial %v", i, got[i], want[i])
		}
	}
}
