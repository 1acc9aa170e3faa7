package mfiblocks

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fpgrowth"
	"repro/internal/record"
	"repro/internal/spill"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Result is the outcome of a run: the surviving soft blocks, the candidate
// pairs they induce (with each pair's best block score as its similarity),
// and coverage bookkeeping. The candidates come in one of two forms, by
// outcome: Pairs and PairScores, with the columns PairPositions and
// PairBlockScores aligned to Pairs, when they fit under the spill cap
// (Config.SpillPairs); Spill when they outgrew it.
type Result struct {
	// Blocks are the surviving soft clusters across all iterations.
	Blocks []*Block
	// Pairs are the distinct candidate pairs, as BookID pairs, in
	// deterministic first-seen order: iterations run at decreasing
	// minsup, blocks within an iteration are admitted in descending
	// (score, -size) order, and a block enumerates its member pairs in
	// member-index order. Two runs over the same collection and config
	// produce the same slice — downstream scoring stages may chunk it
	// freely and merge by chunk index without changing the result. Nil
	// when the candidates spilled.
	Pairs []record.Pair
	// PairScores maps each candidate pair to the best score among the
	// blocks containing it — the pair's blocking similarity. Nil when the
	// candidates spilled.
	PairScores map[record.Pair]float64
	// PairPositions and PairBlockScores are columns aligned with Pairs:
	// entry i holds Pairs[i]'s corpus positions, in the order BookIDs
	// gives, and its PairScores entry. The scoring stage reads them in
	// place when BookIDs is its collection's record order, and converts
	// Pairs to positions otherwise. Nil when the candidates spilled:
	// emission stops recording them at the accumulator's first flush.
	PairPositions   []PairPosition
	PairBlockScores []float64
	// BookIDs is the record order PairPositions index: the report at
	// corpus position i is BookIDs[i]. It is the corpus's own BookIDs
	// slice, held by reference, set with the columns and nil when they
	// are; a scorer compares it with its collection's order before
	// reading the columns.
	BookIDs []int64
	// Covered marks, per collection index, whether the record appeared
	// in any accepted pair.
	Covered []bool
	// Iterations records per-minsup statistics.
	Iterations []IterationStats
	// Spill is the candidate accumulator when the candidates outgrew the
	// cap and went to disk; nil otherwise. Consumers call Spill.Iter()
	// for the merged stream — every distinct pair once, ascending by
	// (A, B), with its best block score — and own closing it.
	Spill *spill.Pairs
	// Cache has no effect and is always zero; it remains only because
	// benchmark/staged.go:251 uses it; ROADMAP 1(a) deletes it.
	Cache struct{ Hits, Misses int64 }
}

// EachPair calls fn with every distinct candidate pair and its best block
// score, from whichever form the run returned: the resident Pairs in
// first-seen order, or the spilled merge in (A, B) order, which it
// consumes and closes. Consumers that enumerate the candidates read
// either outcome of the spill cap through it.
func (r *Result) EachPair(fn func(p record.Pair, score float64)) error {
	if r.Spill == nil {
		for _, p := range r.Pairs {
			fn(p, r.PairScores[p])
		}
		return nil
	}
	it, err := r.Spill.Iter()
	if err != nil {
		r.Spill.Close()
		return err
	}
	for {
		p, score, err := it.Next()
		if err == io.EOF {
			return r.Spill.Close()
		}
		if err != nil {
			r.Spill.Close()
			return err
		}
		fn(p, score)
	}
}

// PairPosition is a candidate pair's two corpus positions in one word:
// the position of the pair's A (its lower BookID) in the high 32 bits,
// of its B in the low ones.
type PairPosition uint64

// Split returns the corpus positions of the pair's A and B.
func (p PairPosition) Split() (a, b int) { return int(p >> 32), int(uint32(p)) }

// IterationStats captures one minsup level of Algorithm 1. It is the
// run report's type for the level: the report copies Result.Iterations
// as they are.
type IterationStats = telemetry.IterationReport

// Run executes MFIBlocks over the collection. It is the batch entry
// point: the collection is encoded into a Corpus and handed to
// RunCorpus.
func Run(cfg Config, coll *record.Collection) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return RunCorpus(cfg, NewCorpus(coll))
}

// RunCorpus executes MFIBlocks over a pre-encoded corpus — the entry
// point streaming callers use after assembling the corpus incrementally.
// The corpus may omit raw records unless ExpertSim scoring needs their
// values.
func RunCorpus(cfg Config, corpus *Corpus) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := corpus.validate(); err != nil {
		return nil, err
	}
	if cfg.ExpertSim && corpus.Records == nil {
		return nil, fmt.Errorf("mfiblocks: ExpertSim requires corpus records")
	}
	n := corpus.Len()
	dict := corpus.Dict
	txns := corpus.Txns
	if txns == nil {
		// A stream that delivered no record never grew an arena. An empty
		// corpus is valid: it mines nothing and yields no candidates.
		txns = fpgrowth.NewTransactions(0, 0)
	}
	miner := fpgrowth.NewMinerTxns(txns)
	miner.Workers = cfg.Workers
	if cfg.PruneFraction > 0 {
		miner.Prune(dict.MostFrequent(cfg.PruneFraction))
	}
	index := miner.BuildIndex()
	sc := newScorer(&cfg, dict, txns, corpus.Records)

	res := &Result{Covered: make([]bool, n)}
	// Every kept block's member pairs go to this one accumulator; whether
	// they stay in memory is decided by the cap alone.
	acc := spill.NewPairs(cfg.SpillPairs, cfg.SpillDir)
	// The position column of the accumulator's first-seen window, while
	// that window is the whole candidate set; positions records it, and
	// is nil once the window flushes (or when a position does not fit in
	// 32 bits).
	var column []PairPosition
	positions := &column
	if uint64(n) > math.MaxUint32 {
		positions = nil
	}
	coveredCount := 0
	// Per-record NG budget units spent so far, across all levels (the
	// rule is stated on Config.NG). Keyed by the dense collection index,
	// so a flat slice beats a map on this hot path.
	spent := make([]int, n)
	// Item frequencies over the still-uncovered records, maintained
	// decrementally as records become covered: each minsup iteration hands
	// the miner ready-made counts instead of recounting every item of
	// every active transaction.
	freq := make([]int, dict.Len())
	for i := 0; i < n; i++ {
		for _, it := range txns.Txn(i) {
			freq[it]++
		}
	}

	cfg.Progress.Stage("blocking", int64(n))
	cfg.Progress.Add(int64(coveredCount))
	for minsup := cfg.MaxMinSup; minsup >= 2 && coveredCount < n; minsup-- {
		iterStart := time.Now()
		iterSpan := cfg.Trace.Child("iteration", trace.WithKind(trace.KindIteration)).
			Attr("minsup", int64(minsup))
		// MFIs are mined over the still-uncovered records (Algorithm 1,
		// line 6), but FindSupport materializes each block over the whole
		// database: a covered record may still join a new block — only
		// the search for new keys narrows as coverage grows.
		active := make([]int, 0, n-coveredCount)
		for i := 0; i < n; i++ {
			if !res.Covered[i] {
				active = append(active, i)
			}
		}

		miner.Trace = iterSpan
		mfis, err := miner.MineMaximalFreq(minsup, active, freq)
		if err != nil {
			iterSpan.End()
			acc.Close()
			return nil, fmt.Errorf("mfiblocks: minsup %d: %w", minsup, err)
		}
		blocks, csPruned := buildBlocks(&cfg, sc, index, mfis, minsup, iterSpan)

		// Enforce the sparse-neighborhood condition (Config.NG) on this
		// level's blocks, best first; a block any member vetoes is pruned.
		ngSpan := iterSpan.Child("enforce_ng", trace.WithKind(trace.KindOp))
		kept, iterTh, ngPruned := enforceNG(&cfg, blocks, spent)
		ngSpan.End()

		prevCovered := coveredCount
		stats := IterationStats{MinSup: minsup, Active: len(active), MFIs: len(mfis), Blocks: len(kept), MinTh: iterTh, CSPruned: csPruned, NGPruned: ngPruned}
		for _, b := range kept {
			// A kept block outlives the level's MFIs, whose item ids share
			// one arena per merge chunk: its own copy of the key lets the
			// arena go with them.
			b.Key = slices.Clone(b.Key)
		}
		res.Blocks = append(res.Blocks, kept...)
		emitSpan := iterSpan.Child("emit_pairs", trace.WithKind(trace.KindOp))
		acc.Trace = emitSpan // a window flush lands under the emission that filled it
		for _, b := range kept {
			first, err := emit(acc, corpus.BookIDs, b, positions)
			stats.NewPairs += first
			if err != nil {
				emitSpan.End()
				iterSpan.End()
				acc.Close()
				return nil, fmt.Errorf("mfiblocks: minsup %d: %w", minsup, err)
			}
			if positions != nil && acc.Stats().Runs > 0 {
				// The window flushed: from here on it holds only the
				// candidates first seen since, and the scorer converts
				// the merge's BookIDs to positions.
				positions, column = nil, nil
			}
			for _, m := range b.Members {
				if !res.Covered[m] {
					res.Covered[m] = true
					coveredCount++
					// The record leaves the active set: retire its
					// items from the incremental frequencies.
					for _, it := range txns.Txn(m) {
						freq[it]--
					}
				}
			}
		}
		emitSpan.End()
		stats.CoveredNow = coveredCount
		stats.Elapsed = time.Since(iterStart)
		res.Iterations = append(res.Iterations, stats)
		cfg.Progress.Add(int64(coveredCount - prevCovered))
		iterSpan.Attr("active", int64(stats.Active)).
			Attr("mfis", int64(stats.MFIs)).
			Attr("blocks", int64(stats.Blocks)).
			Attr("new_pairs", int64(stats.NewPairs)).
			Attr("cs_pruned", int64(stats.CSPruned)).
			Attr("ng_pruned", int64(stats.NGPruned)).
			End()
	}
	acc.Trace = nil // the emission spans have ended; a later merge parents its own
	if pairs, scores, ok := acc.Resident(); ok {
		res.Pairs, res.PairScores = pairs, scores
		if positions != nil {
			res.PairPositions, res.BookIDs = column, corpus.BookIDs
			res.PairBlockScores = make([]float64, len(pairs))
			for i, p := range pairs {
				res.PairBlockScores[i] = scores[p]
			}
		}
	} else {
		res.Spill = acc
	}
	return res, nil
}

// emit adds every member pair of a kept block to the accumulator with the
// block's score, in member-index order, and returns how many of them the
// accumulator saw first. With positions set, it appends each first-seen
// pair's corpus positions there. Every member of a kept block (size >= 2)
// joins a pair, so the caller covers the members directly.
func emit(acc *spill.Pairs, bookIDs []int64, b *Block, positions *[]PairPosition) (first int, err error) {
	for i, m := range b.Members {
		for _, o := range b.Members[i+1:] {
			ida, idb := bookIDs[m], bookIDs[o]
			isFirst, err := acc.Add(record.MakePair(ida, idb), b.Score)
			if err != nil {
				return first, err
			}
			if isFirst {
				first++
				if positions != nil {
					pa, pb := PairPosition(m), PairPosition(o)
					if ida > idb {
						pa, pb = pb, pa
					}
					*positions = append(*positions, pa<<32|pb)
				}
			}
		}
	}
	return first, nil
}

// materializeRun is how many MFIs a buildBlocks worker takes from the
// shared cursor at a time. Small runs keep the workers level — the MFIs of
// common items sit together at the end of the rarest-first order and cost
// far more than the rest, so a contiguous share per worker leaves one of
// them with nearly all the work — while a run still holds enough
// neighbours for the prefix stack to share intersections.
const materializeRun = 256

// runEntry is one MFI of a worker's current run: its index into the
// iteration's MFIs and the window of its rank sequence in the worker's
// arena.
type runEntry struct{ k, off, n int32 }

// materializer is one buildBlocks worker: the iteration's shared,
// read-only inputs, the output it writes at disjoint indices, and the
// scratch it alone owns.
type materializer struct {
	sc       *scorer
	index    *fpgrowth.Index
	mfis     []fpgrowth.Itemset
	minsup   int
	maxSize  int
	minScore float64
	out      []*Block

	walker *fpgrowth.Walker
	js     jaccardScratch
	seqs   []int32    // rank sequences of the run's MFIs, back to back
	ents   []runEntry // the run, sorted by rank sequence
}

// run materializes, caps, and scores one run of MFIs (indices into
// m.mfis) into m.out and returns how many the compact-set cap pruned.
// The MFIs are walked in lexicographic rank-sequence order, so the walker
// intersects each distinct prefix once; supports live in the walker's
// stack and are scored there, and only an admitted block copies out an
// exact-size member slice. Fewer than two members form no block; more
// than maxSize are pruned; a score at or below Config.MinScore forms no
// block either, since no level can admit it.
func (m *materializer) run(run []int32) (pruned int) {
	m.seqs, m.ents = m.seqs[:0], m.ents[:0]
	for _, k := range run {
		off := len(m.seqs)
		m.seqs = m.index.RankSeq(m.seqs, m.mfis[k].Items)
		m.ents = append(m.ents, runEntry{k, int32(off), int32(len(m.seqs) - off)})
	}
	seqs := m.seqs
	slices.SortFunc(m.ents, func(a, b runEntry) int {
		return slices.Compare(seqs[a.off:a.off+a.n], seqs[b.off:b.off+b.n])
	})
	for _, e := range m.ents {
		members := m.walker.Support(seqs[e.off : e.off+e.n])
		switch n := len(members); {
		case n < 2:
		case n > m.maxSize:
			pruned++
		default:
			score := m.sc.score(members, &m.js)
			if score <= m.minScore {
				continue
			}
			members = append(make([]int, 0, n), members...)
			m.out[e.k] = &Block{Key: m.mfis[e.k].Items, Members: members, Score: score, MinSup: m.minsup}
		}
	}
	return pruned
}

// rarestFirstJobs returns the indices of the MFIs that can still form a
// block, grouped by the rank of their rarest item (one counting sort; the
// workers order each run fully), and how many it dropped. Mining runs
// over the still-active subset, so the mined support lower-bounds the
// whole-database support the cap is checked against: Support > maxSize
// already implies the materialized set would be pruned.
func rarestFirstJobs(index *fpgrowth.Index, mfis []fpgrowth.Itemset, maxSize int) (jobs []int32, pruned int) {
	rarest := make([]int32, len(mfis))
	starts := make([]int32, index.NumItems()+1)
	for k := range mfis {
		if mfis[k].Support > maxSize {
			rarest[k] = -1
			pruned++
			continue
		}
		r := index.Rank(mfis[k].Items[0])
		for _, it := range mfis[k].Items[1:] {
			r = min(r, index.Rank(it))
		}
		rarest[k] = r
		starts[r+1]++
	}
	for r := 1; r < len(starts); r++ {
		starts[r] += starts[r-1]
	}
	jobs = make([]int32, len(mfis)-pruned)
	for k, r := range rarest {
		if r >= 0 {
			jobs[starts[r]] = int32(k)
			starts[r]++
		}
	}
	return jobs, pruned
}

// buildBlocks materializes and scores the MFI supports in parallel and
// returns the blocks an NG pass could admit: those with at least two
// members, within the compact-set cap, and scoring above Config.MinScore
// — the one place the score floor is applied. It also reports how many
// MFIs the compact-set cap pruned. Every block is materialized over the
// whole database (the SupportSet contract): coverage never masks a
// record out of a new block.
//
// The MFIs are visited rarest item first, so that those sharing their
// rarest items — where almost all of the intersection work is — are
// neighbours; workers pull runs of that order through an atomic cursor.
// Each block is still written at its MFI's index, so blocks come back in
// MFI order whatever the schedule; enforceNG re-sorts them under a total
// order, so nothing downstream depends on it — nor on the MFI order
// itself, which is why the miner may hand them over unsorted.
func buildBlocks(cfg *Config, sc *scorer, index *fpgrowth.Index, mfis []fpgrowth.Itemset, minsup int, parent *trace.Span) ([]*Block, int) {
	bsp := parent.Child("build_blocks", trace.WithKind(trace.KindOp)).
		Attr("mfis", int64(len(mfis)))
	maxSize := int(float64(minsup) * cfg.P)
	out := make([]*Block, len(mfis))
	jobs, pruned := rarestFirstJobs(index, mfis, maxSize)
	var cursor, csPruned atomic.Int64
	csPruned.Store(int64(pruned))
	var wg sync.WaitGroup
	workers := min(cfg.workers(), (len(jobs)+materializeRun-1)/materializeRun)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := materializer{
				sc: sc, index: index, mfis: mfis,
				minsup: minsup, maxSize: maxSize, minScore: cfg.MinScore, out: out,
				walker: index.NewWalker(),
			}
			for {
				hi := int(cursor.Add(materializeRun))
				lo := hi - materializeRun
				if lo >= len(jobs) {
					return
				}
				csPruned.Add(int64(m.run(jobs[lo:min(hi, len(jobs))])))
			}
		}()
	}
	wg.Wait()
	blocks := out[:0]
	for _, b := range out {
		if b != nil {
			blocks = append(blocks, b)
		}
	}
	bsp.Attr("blocks", int64(len(blocks))).End()
	return blocks, int(csPruned.Load())
}

// enforceNG applies the sparse-neighborhood condition exactly as Config.NG
// states it: blocks are processed in descending score order, each admitted
// block charges every member Size()-1 units of its run-wide budget, and a
// block any member cannot pay for is vetoed. The blocks come from
// buildBlocks, which already dropped every one scoring at or below
// MinScore. It returns the surviving blocks (descending score), the
// lowest surviving score (the effective iteration threshold; MinScore
// when none survives), and the number of blocks the neighborhood cap
// vetoed. spent holds the units each record has spent at earlier levels;
// it is indexed by dense record index, sized to the collection, and
// updated in place.
//
// The admission order is a total order — (score desc, size asc, members
// lex asc, key lex asc) — so the outcome is independent of the incoming
// block order and of the sort's unspecified handling of ties. A
// (score, size)-only tiebreak would let tied blocks land in either order
// and, through the greedy budget, change which pairs Result.Pairs emits
// — violating the documented determinism downstream chunked scoring
// relies on.
func enforceNG(cfg *Config, blocks []*Block, spent []int) (kept []*Block, minTh float64, ngPruned int) {
	limit := int(math.Ceil(cfg.NG * float64(cfg.MaxMinSup)))
	if limit < 1 {
		limit = 1
	}
	ordered := make([]*Block, len(blocks))
	copy(ordered, blocks)
	slices.SortFunc(ordered, func(bi, bj *Block) int {
		switch {
		case bi.Score > bj.Score:
			return -1
		case bi.Score < bj.Score:
			return 1
		}
		if c := bi.Size() - bj.Size(); c != 0 {
			return c
		}
		// Members are ascending collection indices, so lexicographic
		// comparison is deterministic; distinct MFIs give distinct keys,
		// making the order total even for identical support sets.
		if c := slices.Compare(bi.Members, bj.Members); c != 0 {
			return c
		}
		return slices.Compare(bi.Key, bj.Key)
	})
	minTh = cfg.MinScore
	for _, b := range ordered {
		cost := b.Size() - 1
		veto := false
		for _, m := range b.Members {
			if spent[m]+cost > limit {
				veto = true
				break
			}
		}
		if veto {
			ngPruned++
			continue
		}
		for _, m := range b.Members {
			spent[m] += cost
		}
		kept = append(kept, b)
		minTh = b.Score
	}
	return kept, minTh, ngPruned
}
