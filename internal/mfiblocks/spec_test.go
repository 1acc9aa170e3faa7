package mfiblocks

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/record"
)

// specResult is everything Algorithm 1 determines about a run: the kept
// blocks, the candidate pairs in first-seen order with their best block
// score, the coverage, and every per-level statistic but Elapsed.
type specResult struct {
	Blocks     []*Block
	Pairs      []record.Pair
	PairScores map[record.Pair]float64
	Covered    []bool
	Iterations []IterationStats
}

// specRun is Algorithm 1 as the paper states it, written for obviousness
// and not for speed: the executable statement that Run, at every worker
// count and spill cap, must reproduce bit for bit.
//
// For minsup = MaxMinSup down to 2, while records stay uncovered:
//   - mine the maximal frequent itemsets of the uncovered records, over
//     their transactions without the PruneFraction most frequent items;
//   - turn each into a block of every record holding it (covered ones
//     too), found by a linear scan;
//   - drop a block of fewer than 2 members; prune one above ⌊minsup·P⌋
//     members (the compact-set cap, counted in CSPruned); drop one that
//     scores at or below MinScore;
//   - admit the rest best first — score descending, then size ascending,
//     then members, then key — each charging every member Size()−1 units
//     of a run-wide budget of max(1, ⌈NG·MaxMinSup⌉), and prune one any
//     member cannot pay for (NGPruned);
//   - emit each admitted block's member pairs in member order, a pair
//     keeping its best block score, and cover its members.
func specRun(cfg Config, coll *record.Collection) *specResult {
	corpus := NewCorpus(coll)
	n := corpus.Len()
	dropped := make(map[int]bool)
	if cfg.PruneFraction > 0 {
		for _, it := range corpus.Dict.MostFrequent(cfg.PruneFraction) {
			dropped[it] = true
		}
	}
	mined := make([][]int, n)
	for i := range mined {
		for _, it := range corpus.Txns.Txn(i) {
			if !dropped[int(it)] {
				mined[i] = append(mined[i], int(it))
			}
		}
	}
	candidates := specCandidatesOf(mined)
	sc := newScorer(&cfg, corpus.Dict, corpus.Txns, corpus.Records)
	limit := max(1, int(math.Ceil(cfg.NG*float64(cfg.MaxMinSup))))
	spent := make([]int, n)
	res := &specResult{PairScores: make(map[record.Pair]float64), Covered: make([]bool, n)}
	covered := 0
	for minsup := cfg.MaxMinSup; minsup >= 2 && covered < n; minsup-- {
		var active []int
		for i, c := range res.Covered {
			if !c {
				active = append(active, i)
			}
		}
		mfis := specMaximal(candidates, mined, active, minsup)
		stats := IterationStats{MinSup: minsup, Active: len(active), MFIs: len(mfis), MinTh: cfg.MinScore}
		var blocks []*Block
		for _, key := range mfis {
			b, capped := specBlock(sc, key, specMembers(sc, key), minsup)
			if capped {
				stats.CSPruned++
			}
			if b != nil && b.Score > cfg.MinScore {
				blocks = append(blocks, b)
			}
		}
		slices.SortFunc(blocks, func(a, b *Block) int {
			return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Size(), b.Size()),
				slices.Compare(a.Members, b.Members), slices.Compare(a.Key, b.Key))
		})
		var kept []*Block
		for _, b := range blocks {
			cost := b.Size() - 1
			if slices.ContainsFunc(b.Members, func(m int) bool { return spent[m]+cost > limit }) {
				stats.NGPruned++
				continue
			}
			for _, m := range b.Members {
				spent[m] += cost
			}
			kept = append(kept, b)
			stats.MinTh = b.Score
		}
		for _, b := range kept {
			for i, m := range b.Members {
				for _, o := range b.Members[i+1:] {
					p := record.MakePair(corpus.BookIDs[m], corpus.BookIDs[o])
					best, seen := res.PairScores[p]
					if !seen {
						res.Pairs = append(res.Pairs, p)
						stats.NewPairs++
					}
					if !seen || b.Score > best {
						res.PairScores[p] = b.Score
					}
				}
			}
			for _, m := range b.Members {
				if !res.Covered[m] {
					res.Covered[m] = true
					covered++
				}
			}
		}
		stats.Blocks = len(kept)
		stats.CoveredNow = covered
		res.Blocks = append(res.Blocks, kept...)
		res.Iterations = append(res.Iterations, stats)
	}
	return res
}

// specCandidates returns every nonempty intersection of two or more of
// the transactions, each sorted ascending: every pairwise intersection,
// closed under intersecting with one more transaction.
func specCandidates(txns [][]int) [][]int {
	seen := make(map[string]bool)
	var closed [][]int
	var key []byte
	add := func(s []int) {
		key = key[:0]
		for _, it := range s {
			key = binary.AppendUvarint(key, uint64(it))
		}
		if len(s) > 0 && !seen[string(key)] {
			seen[string(key)] = true
			closed = append(closed, slices.Clone(s))
		}
	}
	var buf []int
	for i, a := range txns {
		for _, b := range txns[i+1:] {
			buf = intersectSorted(buf[:0], a, b)
			add(buf)
		}
	}
	for k := 0; k < len(closed); k++ {
		for _, t := range txns {
			buf = intersectSorted(buf[:0], closed[k], t)
			add(buf)
		}
	}
	return closed
}

// specCandidateCache holds specCandidates per transaction list, keyed by
// its printed form: rows share a corpus and its prune set, and the
// candidates depend on nothing else. It keeps the first specCacheSize
// lists, so a fuzzer's stream of one-off corpora does not fill it.
var (
	specCandidateCache sync.Map
	specCached         atomic.Int32
)

const specCacheSize = 32

func specCandidatesOf(txns [][]int) [][]int {
	key := fmt.Sprint(txns)
	if c, ok := specCandidateCache.Load(key); ok {
		return c.([][]int)
	}
	c := specCandidates(txns)
	if specCached.Add(1) <= specCacheSize {
		specCandidateCache.Store(key, c)
	}
	return c
}

// specMaximal returns the maximal frequent itemsets of the active
// transactions at minsup: the candidates held by at least minsup of them
// that no other such candidate strictly contains. The candidates must
// include every intersection of two or more active transactions, as
// specCandidates over all of them does, because a maximal frequent
// itemset is the intersection of the minsup ≥ 2 transactions that hold
// it: an item they all shared would extend it at the same support. Any
// other candidate lies inside the intersection of its own holders, so it
// is never maximal. (Enumerating every itemset and keeping the maximal
// frequent ones states the same set, but is exponential at minsup 2.)
func specMaximal(candidates, txns [][]int, active []int, minsup int) [][]int {
	var frequent [][]int
	for _, s := range candidates {
		support := 0
		for _, i := range active {
			if holds(txns[i], s) {
				support++
			}
		}
		if support >= minsup {
			frequent = append(frequent, s)
		}
	}
	var maximal [][]int
	for _, s := range frequent {
		if !slices.ContainsFunc(frequent, func(o []int) bool { return len(o) > len(s) && holds(o, s) }) {
			maximal = append(maximal, s)
		}
	}
	return maximal
}

// specMembers is the support of one itemset: the records holding every
// item of key, by a linear scan over all of them. It depends on neither
// minsup nor the scoring, so a caller may scan an itemset once for all.
func specMembers(sc *scorer, key []int) []int {
	var members []int
	for i := 0; i < sc.txns.Len(); i++ {
		txn := sc.txns.Txn(i)
		if !slices.ContainsFunc(key, func(it int) bool { _, ok := slices.BinarySearch(txn, int32(it)); return !ok }) {
			members = append(members, i)
		}
	}
	return members
}

// specBlock is Algorithm 1's block for one itemset at minsup, from its
// members (specMembers), scored by the reference scorer. It returns no
// block below 2 members, and none, capped, above the compact-set cap
// ⌊minsup·P⌋. The score floor is the caller's.
func specBlock(sc *scorer, key, members []int, minsup int) (b *Block, capped bool) {
	switch {
	case len(members) < 2:
		return nil, false
	case len(members) > int(float64(minsup)*sc.cfg.P):
		return nil, true
	}
	return &Block{Key: key, Members: members, Score: specScore(sc, members), MinSup: minsup}, false
}

// specScore is the block score by definition: the map-based cluster
// Jaccard, or under ExpertSim the quadratic greedy soft Jaccard averaged
// over member pairs.
func specScore(sc *scorer, members []int) float64 {
	if !sc.useFsim {
		return refClusterJaccard(sc, members)
	}
	var sum float64
	n := 0
	for i, m := range members {
		for _, o := range members[i+1:] {
			sum += refSoftJaccard(sc, sc.records[m], sc.records[o])
			n++
		}
	}
	return sum / float64(n)
}

// intersectSorted appends the items two ascending lists share to dst.
func intersectSorted(dst, a, b []int) []int {
	for _, it := range a {
		if _, ok := slices.BinarySearch(b, it); ok {
			dst = append(dst, it)
		}
	}
	return dst
}

// holds reports whether the ascending list txn holds every item of s.
func holds(txn, s []int) bool {
	for _, it := range s {
		if _, ok := slices.BinarySearch(txn, it); !ok {
			return false
		}
	}
	return true
}

// specCorpus is one input the rows share: a collection, and the place
// distances ExpertSim scores it with.
type specCorpus struct {
	coll *record.Collection
	geo  *gazetteer.Gazetteer
}

// specCorpora are the rows' inputs, built once per test binary: the
// 150-person ItalySet (dense, single community), the same records in
// reverse order (so a pair's lower BookID is its later position), the
// noisy partial duplicates of workerCollection, and the byte-identical
// groups of tieHeavyCollection, where every block score collides with
// many others.
var specCorpora = sync.OnceValue(func() map[string]specCorpus {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 150
	g, err := dataset.Generate(cfg)
	if err != nil {
		panic(err)
	}
	reversed := slices.Clone(g.Collection.Records)
	slices.Reverse(reversed)
	return map[string]specCorpus{
		"italy":          {g.Collection, g.Gaz},
		"italy-reversed": {mustCollection(reversed), g.Gaz},
		"worker":         {workerCollection(), oneSpot},
		"ties":           {tieHeavyCollection(), oneSpot},
	}
})

// workerCollection builds a noisy collection with partial duplicates so
// the run exercises several minsup iterations and contested blocks.
func workerCollection() *record.Collection {
	rng := rand.New(rand.NewSource(41))
	firsts := []string{"Abram", "Chana", "Dov", "Ester", "Gitel", "Lejb", "Mirla", "Szmul"}
	lasts := []string{"Goldberg", "Kac", "Lewin", "Rozen", "Szwarc", "Wajs"}
	var records []*record.Record
	for g := 0; g < 40; g++ {
		first := firsts[rng.Intn(len(firsts))]
		last := lasts[rng.Intn(len(lasts))]
		year := fmt.Sprintf("19%02d", rng.Intn(30))
		for dup := 0; dup < 2+rng.Intn(3); dup++ {
			r := &record.Record{BookID: int64(len(records) + 1), Source: fmt.Sprintf("list-%d", 1+dup%3), Kind: record.List}
			r.Add(record.FirstName, first)
			r.Add(record.LastName, last)
			r.Add(record.BirthYear, year)
			if rng.Intn(2) == 0 {
				r.Add(record.FatherName, firsts[rng.Intn(len(firsts))])
			}
			records = append(records, r)
		}
	}
	return mustCollection(records)
}

// tieHeavyCollection builds groups of byte-identical records (distinct
// BookIDs only), so every block score collides with many others — the
// worst case for a tiebreak that stops at (score, size).
func tieHeavyCollection() *record.Collection {
	var records []*record.Record
	for group := 0; group < 12; group++ {
		for dup := 0; dup < 5; dup++ {
			r := &record.Record{BookID: int64(len(records) + 1), Source: "list-1", Kind: record.List}
			r.Add(record.FirstName, fmt.Sprintf("Name%c", 'A'+group))
			r.Add(record.LastName, fmt.Sprintf("Fam%c", 'A'+group%4))
			r.Add(record.BirthYear, "1910")
			records = append(records, r)
		}
	}
	return mustCollection(records)
}

func mustCollection(records []*record.Record) *record.Collection {
	coll, err := record.NewCollection(records)
	if err != nil {
		panic(err)
	}
	return coll
}

// checkRun holds Run on one corpus and config, at each worker count, to
// specRun.
func checkRun(t *testing.T, corpus string, cfg Config, workers ...int) {
	t.Helper()
	in := specCorpora()[corpus]
	if cfg.ExpertSim {
		cfg.Geo = in.geo
	}
	want := specRun(cfg, in.coll)
	if len(want.Pairs) == 0 {
		t.Fatalf("%s: the spec finds no candidate pair; the row tests nothing", corpus)
	}
	for _, w := range workers {
		cfg.Workers = w
		got, err := Run(cfg, in.coll)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", corpus, w, err)
		}
		label := fmt.Sprintf("%s workers=%d", corpus, w)
		matchesSpec(t, label, got, want)
		columnsMatch(t, label, got, NewCorpus(in.coll).BookIDs)
	}
}

// columnsMatch holds a resident run's aligned columns to what they
// describe: entry i of PairPositions names Pairs[i].A and Pairs[i].B by
// their corpus positions (bookIDs[pos]), entry i of PairBlockScores is
// Pairs[i]'s PairScores entry, and BookIDs is the corpus order bookIDs.
func columnsMatch(t *testing.T, label string, got *Result, bookIDs []int64) {
	t.Helper()
	if len(got.PairPositions) != len(got.Pairs) || len(got.PairBlockScores) != len(got.Pairs) {
		t.Fatalf("%s: %d positions and %d block scores for %d pairs", label, len(got.PairPositions), len(got.PairBlockScores), len(got.Pairs))
	}
	if !slices.Equal(got.BookIDs, bookIDs) {
		t.Fatalf("%s: the columns' record order is not the corpus's", label)
	}
	for i, p := range got.Pairs {
		pa, pb := got.PairPositions[i].Split()
		if bookIDs[pa] != p.A || bookIDs[pb] != p.B {
			t.Fatalf("%s: pair %d is %v, its positions %d and %d name %d and %d", label, i, p, pa, pb, bookIDs[pa], bookIDs[pb])
		}
		if got.PairBlockScores[i] != got.PairScores[p] {
			t.Fatalf("%s: pair %d's block score column holds %v, PairScores %v", label, i, got.PairBlockScores[i], got.PairScores[p])
		}
	}
}

// matchesSpec compares a resident run with the spec: Blocks, Pairs in
// order, PairScores, Covered and every IterationStats field but Elapsed,
// by reflect.DeepEqual.
func matchesSpec(t *testing.T, label string, got *Result, want *specResult) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(stripElapsed(got.Iterations), want.Iterations):
		t.Fatalf("%s: iteration stats diverge from the spec:\n got  %+v\n want %+v", label, stripElapsed(got.Iterations), want.Iterations)
	case !reflect.DeepEqual(got.Blocks, want.Blocks):
		t.Fatalf("%s: %d blocks diverge from the spec's %d", label, len(got.Blocks), len(want.Blocks))
	case !reflect.DeepEqual(got.Pairs, want.Pairs):
		t.Fatalf("%s: %d pairs diverge from the spec's %d", label, len(got.Pairs), len(want.Pairs))
	case !reflect.DeepEqual(got.PairScores, want.PairScores):
		t.Fatalf("%s: pair scores diverge from the spec's", label)
	case !reflect.DeepEqual(got.Covered, want.Covered):
		t.Fatalf("%s: coverage diverges from the spec's", label)
	}
}

// TestRunMatchesSpec holds Run to specRun with one row per blocking knob
// on each corpus, the worker count rotating through 1, 2 and 8 instead of
// crossing every config, plus a row over the ItalySet in reverse record
// order and one spilled row. A resident row's aligned columns must
// describe its pairs; a spilled row has none. The default config, the
// worker counts, ExpertSim, the small fixtures unpruned and the ties
// under ExpertWeights have rows named after them instead.
func TestRunMatchesSpec(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*Config)
	}{
		{"ExpertWeights", func(c *Config) { c.ExpertWeights = true }},
		{"MinScore=-1", func(c *Config) { c.MinScore = -1 }},
		{"NG=1", func(c *Config) { c.NG = 1 }},
		{"NG=1.5", func(c *Config) { c.NG = 1.5 }},
		{"PruneFraction=0", func(c *Config) { c.PruneFraction = 0 }},
		{"P=20", func(c *Config) { c.P = 20 }},
		{"MaxMinSup=4", func(c *Config) { c.MaxMinSup = 4 }},
	}
	workers := []int{1, 2, 8}
	row := 0
	for _, corpus := range []string{"italy", "worker", "ties"} {
		for _, k := range knobs {
			if corpus != "italy" && k.name == "PruneFraction=0" || corpus == "ties" && k.name == "ExpertWeights" {
				continue
			}
			t.Run(corpus+"/"+k.name, func(t *testing.T) {
				cfg := NewConfig()
				k.set(&cfg)
				checkRun(t, corpus, cfg, workers[row%len(workers)])
			})
			row++
		}
	}
	t.Run("italy-reversed/default", func(t *testing.T) { checkRun(t, "italy-reversed", NewConfig(), 2) })
	t.Run("italy/spilled", testSpilledMatchesSpec)
}

// testSpilledMatchesSpec is the spilled row: with a cap of 32 pairs the
// candidates go to disk in several runs, and EachPair's merge must
// deliver each of the spec's pairs once, with its score, in (A, B) order.
// Everything else is the spec's but the window-local NewPairs.
func testSpilledMatchesSpec(t *testing.T) {
	coll := specCorpora()["italy"].coll
	cfg := NewConfig()
	want := specRun(cfg, coll)
	cfg.Workers = 8
	cfg.SpillPairs = 32
	cfg.SpillDir = t.TempDir()
	got, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spill == nil || got.Spill.Stats().Runs < 2 || got.Pairs != nil || got.PairScores != nil ||
		got.PairPositions != nil || got.PairBlockScores != nil || got.BookIDs != nil {
		t.Fatal("a cap of 32 pairs did not leave only a merge of at least two runs")
	}
	order, scores := collect(t, got)
	if len(order) != len(scores) || !slices.IsSortedFunc(order, func(a, b record.Pair) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) }) {
		t.Fatal("the merge repeats a pair or is not in (A, B) order")
	}
	got.Pairs, got.PairScores = want.Pairs, scores
	for i := range got.Iterations {
		got.Iterations[i].NewPairs = want.Iterations[i].NewPairs
	}
	matchesSpec(t, "spilled", got, want)
}

// TestRunShardedBitIdentical is the workers row on ItalySet: at 1, 2 and
// 8 workers, the default config's run is the spec's, bit for bit.
func TestRunShardedBitIdentical(t *testing.T) {
	checkRun(t, "italy", NewConfig(), 1, 2, 8)
}

// TestRunWorkerCountInvariance is the workers row on the noisy duplicate
// fixture, unpruned, where several levels contest blocks.
func TestRunWorkerCountInvariance(t *testing.T) {
	cfg := NewConfig()
	cfg.PruneFraction = 0
	checkRun(t, "worker", cfg, 1, 2, 8)
}

// TestRunDeterministicUnderTies is the ties row at one worker: on
// byte-identical groups every score ties, so only the full admission
// order — score, size, members, key — decides which blocks NG admits.
func TestRunDeterministicUnderTies(t *testing.T) {
	cfg := NewConfig()
	cfg.PruneFraction = 0
	checkRun(t, "ties", cfg, 1)
}

// TestRunShardedDeterministicUnderTies is the ties row at eight workers,
// whose blocks come out of the materializer in schedule order.
func TestRunShardedDeterministicUnderTies(t *testing.T) {
	cfg := NewConfig()
	cfg.PruneFraction = 0
	checkRun(t, "ties", cfg, 8)
}

// TestExpertSimRuns is the ExpertSim row: blocks scored by the averaged
// soft Jaccard, which is not set-monotonic, on ItalySet with its
// gazetteer and on the noisy duplicates.
func TestExpertSimRuns(t *testing.T) {
	cfg := NewConfig()
	cfg.ExpertSim = true
	checkRun(t, "italy", cfg, 2)
	checkRun(t, "worker", cfg, 8)
}
