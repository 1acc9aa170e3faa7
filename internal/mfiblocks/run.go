package mfiblocks

import (
	"fmt"
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
// and coverage bookkeeping.
type Result struct {
	// Blocks are the surviving soft clusters across all iterations.
	Blocks []*Block
	// Pairs are the distinct candidate pairs, as BookID pairs, in
	// deterministic first-seen order: iterations run at decreasing
	// minsup, blocks within an iteration are admitted in descending
	// (score, -size) order, and a block enumerates its member pairs in
	// member-index order. Two runs over the same collection and config
	// produce the same slice — downstream scoring stages may chunk it
	// freely and merge by chunk index without changing the result.
	Pairs []record.Pair
	// PairScores maps each candidate pair to the best score among the
	// blocks containing it — the pair's blocking similarity.
	PairScores map[record.Pair]float64
	// PairBlocks maps each candidate pair to the indices (into Blocks)
	// of the blocks that produced it.
	PairBlocks map[record.Pair][]int
	// Covered marks, per collection index, whether the record appeared
	// in any accepted pair.
	Covered []bool
	// Iterations records per-minsup statistics.
	Iterations []IterationStats
	// Spill carries the disk-spillable candidate accumulator when
	// Config.SpillPairs enables spilling; Pairs, PairScores, and
	// PairBlocks are nil in that mode. Consumers call Spill.Iter() for
	// the merged stream — every distinct pair once, ascending by (A, B),
	// with its best block score — and own closing it.
	Spill *spill.Pairs
	// Cache holds the cross-iteration block cache's counters (all zero
	// when Config.BlockCache is 0). Cache state never changes Blocks,
	// Pairs, or any other field — only how much work materializing them
	// took.
	Cache BlockCacheStats
}

// IterationStats captures one minsup level of Algorithm 1.
type IterationStats struct {
	MinSup     int
	Active     int // uncovered records the MFIs were mined over
	MFIs       int
	Blocks     int     // blocks surviving all filters
	CSPruned   int     // blocks dropped by the compact-set size cap
	NGPruned   int     // blocks vetoed by the sparse-neighborhood cap
	NewPairs   int     // pairs first seen this iteration
	CoveredNow int     // total records covered after the iteration
	MinTh      float64 // score threshold after NG enforcement
	Elapsed    time.Duration
}

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
	reg := cfg.metrics()
	n := corpus.Len()
	dict := corpus.Dict
	txns := corpus.Txns
	miner := fpgrowth.NewMinerTxns(txns)
	miner.Metrics = reg
	miner.Workers = cfg.Workers
	if cfg.PruneFraction > 0 {
		miner.Prune(dict.MostFrequent(cfg.PruneFraction))
	}
	index := miner.BuildIndex()
	sc := newScorer(&cfg, dict, txns, corpus.Records)
	cache := newBlockCache(cfg.BlockCache)

	res := &Result{Covered: make([]bool, n)}
	var sink *spill.Pairs
	var emit *spillEmitter
	if cfg.SpillPairs > 0 {
		sink = spill.NewPairs(cfg.SpillPairs, cfg.SpillDir)
		sink.Trace = cfg.Trace
		res.Spill = sink
		emit = startSpillEmitter(sink, corpus.BookIDs)
	} else {
		res.PairScores = make(map[record.Pair]float64)
		res.PairBlocks = make(map[record.Pair][]int)
	}
	minTh := cfg.MinScore
	coveredCount := 0
	// Comparison budgets are cumulative over the whole run: NG bounds the
	// total comparisons a record may participate in. Keyed by the dense
	// collection index, so a flat slice beats a map on this hot path.
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
		mfis := miner.MineMaximalFreq(minsup, active, freq)
		blocks, csPruned := buildBlocks(&cfg, sc, index, cache, mfis, minsup, iterSpan)

		// Enforce the sparse-neighborhood condition for this iteration:
		// every record admits blocks best-first while its distinct
		// neighborhood stays within NG times the a-priori duplicate
		// estimate (MaxMinSup); a block any member vetoes is pruned.
		kept, iterTh, ngPruned := enforceNG(&cfg, blocks, spent)
		minTh = math.Max(minTh, iterTh)

		prevCovered := coveredCount
		stats := IterationStats{MinSup: minsup, Active: len(active), MFIs: len(mfis), MinTh: iterTh, CSPruned: csPruned, NGPruned: ngPruned}
		for _, b := range kept {
			stats.Blocks++
			bi := len(res.Blocks)
			res.Blocks = append(res.Blocks, b)
			if sink == nil {
				for i := 0; i < len(b.Members); i++ {
					for j := i + 1; j < len(b.Members); j++ {
						p := record.MakePair(corpus.BookIDs[b.Members[i]], corpus.BookIDs[b.Members[j]])
						if _, seen := res.PairScores[p]; !seen {
							res.Pairs = append(res.Pairs, p)
							stats.NewPairs++
						}
						if b.Score > res.PairScores[p] {
							res.PairScores[p] = b.Score
						}
						res.PairBlocks[p] = append(res.PairBlocks[p], bi)
					}
				}
			}
			// Every member of a kept block (size >= 2) joins at least one
			// pair, so covering members directly is equivalent to the
			// per-pair updates — and keeps coverage synchronous while the
			// spill emitter writes pairs in the background.
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
		if emit != nil {
			// Hand the iteration's kept blocks (immutable from here on) to
			// the emitter: sink.Add calls happen in exactly the order the
			// synchronous path used — batches in iteration order, blocks in
			// kept order, pairs in member order — so the spilled stream is
			// bit-identical while the next iteration's mining overlaps the
			// disk writes. NewPairs is backfilled after the drain.
			emit.send(len(res.Iterations), kept)
		}
		stats.CoveredNow = coveredCount
		stats.Elapsed = time.Since(iterStart)
		res.Iterations = append(res.Iterations, stats)
		cfg.Progress.Add(int64(coveredCount - prevCovered))
		iterSpan.Attr("active", int64(stats.Active)).
			Attr("mfis", int64(stats.MFIs)).
			Attr("blocks", int64(stats.Blocks))
		if sink == nil {
			// In spill mode pair emission outlives the iteration span (the
			// async emitter may still be writing when it ends), and a span
			// cannot take attrs after End — so the attr is in-memory only.
			iterSpan.Attr("new_pairs", int64(stats.NewPairs))
		}
		iterSpan.Attr("cs_pruned", int64(stats.CSPruned)).
			Attr("ng_pruned", int64(stats.NGPruned)).
			End()

		reg.Counter("mfiblocks_iterations_total").Inc()
		reg.Counter("mfiblocks_mfis_total").Add(int64(stats.MFIs))
		reg.Counter("mfiblocks_blocks_total").Add(int64(stats.Blocks))
		reg.Counter("mfiblocks_pairs_total").Add(int64(stats.NewPairs))
		reg.Counter("mfiblocks_cs_pruned_total").Add(int64(stats.CSPruned))
		reg.Counter("mfiblocks_ng_pruned_total").Add(int64(stats.NGPruned))
		reg.Gauge("mfiblocks_covered_records").Set(float64(coveredCount))
		reg.Timer("mfiblocks_iteration_seconds").Observe(stats.Elapsed)
		telemetry.Log().Debug("mfiblocks iteration",
			"minsup", minsup, "mfis", stats.MFIs, "blocks", stats.Blocks,
			"cs_pruned", stats.CSPruned, "ng_pruned", stats.NGPruned,
			"new_pairs", stats.NewPairs, "covered", coveredCount, "of", n,
			"min_th", iterTh, "elapsed", stats.Elapsed)
		if emit != nil && emit.failed.Load() {
			break // stop mining; wait() below surfaces the write error
		}
	}
	if emit != nil {
		if err := emit.wait(); err != nil {
			sink.Close()
			return nil, err
		}
		// The emitter owned the first-seen accounting; fold it back into
		// the per-iteration stats and the pair counter now that every
		// sink.Add has happened.
		for i, np := range emit.newPairs {
			res.Iterations[i].NewPairs = np
			reg.Counter("mfiblocks_pairs_total").Add(int64(np))
		}
	}
	if cache != nil {
		res.Cache = cache.Stats()
		reg.Counter("mfiblocks_block_cache_hits_total").Add(res.Cache.Hits)
		reg.Counter("mfiblocks_block_cache_misses_total").Add(res.Cache.Misses)
		reg.Counter("mfiblocks_block_cache_evictions_total").Add(res.Cache.Evictions)
	}
	return res, nil
}

// emitBatch is one iteration's kept blocks queued for spill emission.
type emitBatch struct {
	iter   int // index of the iteration, for NewPairs backfill
	blocks []*Block
}

// spillEmitter overlaps candidate-pair emission with block discovery in
// spill mode: the main loop hands each iteration's kept blocks over a
// small bounded channel and immediately mines the next minsup level
// while this goroutine enumerates member pairs and appends them to the
// spill sink. A single consumer preserving batch order keeps the
// sink.Add sequence — and therefore the spilled runs and every
// first-seen bit — identical to the synchronous path's.
type spillEmitter struct {
	sink    *spill.Pairs
	bookIDs []int64
	ch      chan emitBatch
	done    chan struct{}
	failed  atomic.Bool
	// err and newPairs are written only by the emitter goroutine and read
	// by the producer only after done closes (wait), so the channel close
	// orders every access.
	err      error
	newPairs []int // first-seen pairs per iteration, indexed by emitBatch.iter
}

func startSpillEmitter(sink *spill.Pairs, bookIDs []int64) *spillEmitter {
	e := &spillEmitter{
		sink:    sink,
		bookIDs: bookIDs,
		// Capacity 2 bounds the overlap window: at most the current
		// iteration's blocks plus two queued batches are retained, so the
		// emitter never lets block memory grow with the iteration count.
		ch:   make(chan emitBatch, 2),
		done: make(chan struct{}),
	}
	go e.run()
	return e
}

func (e *spillEmitter) run() {
	defer close(e.done)
	for batch := range e.ch {
		if e.err != nil {
			continue // keep draining so send never blocks after a failure
		}
		first := 0
		for _, b := range batch.blocks {
			for i := 0; i < len(b.Members) && e.err == nil; i++ {
				for j := i + 1; j < len(b.Members); j++ {
					p := record.MakePair(e.bookIDs[b.Members[i]], e.bookIDs[b.Members[j]])
					isFirst, err := e.sink.Add(p, b.Score)
					if err != nil {
						e.err = err
						e.failed.Store(true)
						break
					}
					if isFirst {
						first++
					}
				}
			}
			if e.err != nil {
				break
			}
		}
		for len(e.newPairs) <= batch.iter {
			e.newPairs = append(e.newPairs, 0)
		}
		e.newPairs[batch.iter] = first
	}
}

// send queues one iteration's kept blocks; it blocks when the emitter is
// more than two iterations behind. The blocks must not be mutated after
// the call (the run never does — kept blocks are final once enforceNG
// returns).
func (e *spillEmitter) send(iter int, blocks []*Block) {
	e.ch <- emitBatch{iter: iter, blocks: blocks}
}

// wait closes the queue, drains the emitter, and returns its first
// write error (nil on success). newPairs is complete once wait returns.
func (e *spillEmitter) wait() error {
	close(e.ch)
	<-e.done
	return e.err
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
	sc      *scorer
	index   *fpgrowth.Index
	cache   *blockCache
	mfis    []fpgrowth.Itemset
	minsup  int
	maxSize int
	out     []*Block

	walker *fpgrowth.Walker
	js     jaccardScratch
	seqs   []int32    // rank sequences of the run's MFIs, back to back
	ents   []runEntry // the run, sorted by rank sequence
}

// run materializes, caps, and scores one run of MFIs (indices into
// m.mfis) into m.out and returns how many the compact-set cap pruned.
// The MFIs the cache does not hold are walked in lexicographic
// rank-sequence order, so the walker intersects each distinct prefix
// once; supports live in the walker's stack, and only an admitted block
// copies out an exact-size member slice.
//
// The cache path is exact, not approximate: every block is materialized
// over the whole database (the SupportSet contract), so a key's members
// and score are invariants across iterations, while everything
// minsup-dependent — the < 2 floor and the compact-set cap in emit, the
// mined-support pre-filter in rarestFirstJobs — is re-checked on every
// hit. A nil cache disables memoization with no other change.
func (m *materializer) run(run []int32) (pruned int) {
	m.seqs, m.ents = m.seqs[:0], m.ents[:0]
	for _, k := range run {
		if members, score, ok := m.cache.get(m.mfis[k].Items); ok {
			pruned += m.emit(k, members, score)
			continue
		}
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
		var score float64
		if n := len(members); n >= 2 && n <= m.maxSize {
			members = append(make([]int, 0, n), members...)
			score = m.sc.score(members, &m.js)
			m.cache.put(m.mfis[e.k].Items, members, score)
		}
		pruned += m.emit(e.k, members, score)
	}
	return pruned
}

// emit applies the minsup-dependent filters to MFI k's support — from
// the cache or just materialized — and writes its block if it passes:
// fewer than two members form no block, more than maxSize are pruned by
// the compact-set cap (returns 1).
func (m *materializer) emit(k int32, members []int, score float64) (pruned int) {
	switch {
	case len(members) < 2:
	case len(members) > m.maxSize:
		return 1
	default:
		m.out[k] = &Block{Key: m.mfis[k].Items, Members: members, Score: score, MinSup: m.minsup}
	}
	return 0
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

// buildBlocks materializes and scores the MFI supports in parallel,
// dropping blocks that are too small (<2) or exceed the compact-set
// cap. It also reports how many blocks the compact-set cap pruned.
// Every block is materialized over the whole database (the SupportSet
// contract): coverage never masks a record out of a new block.
//
// The MFIs are visited rarest item first, so that those sharing their
// rarest items — where almost all of the intersection work is — are
// neighbours; workers pull runs of that order through an atomic cursor.
// Each block is still written at its MFI's index, so blocks come back in
// MFI order whatever the schedule; enforceNG re-sorts them under a total
// order, so nothing downstream depends on it.
func buildBlocks(cfg *Config, sc *scorer, index *fpgrowth.Index, cache *blockCache, mfis []fpgrowth.Itemset, minsup int, parent *trace.Span) ([]*Block, int) {
	bsp := parent.Child("build_blocks", trace.WithKind(trace.KindOp)).
		Attr("mfis", int64(len(mfis)))
	var hits0, misses0 int64
	if cache != nil {
		st := cache.Stats()
		hits0, misses0 = st.Hits, st.Misses
	}
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
				sc: sc, index: index, cache: cache, mfis: mfis,
				minsup: minsup, maxSize: maxSize, out: out,
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
	if cache != nil {
		// Volatile: hit counts vary across cache sizes and with eviction
		// timing, so Canonical trees drop them.
		st := cache.Stats()
		bsp.VolatileAttr("cache_hits", st.Hits-hits0).
			VolatileAttr("cache_misses", st.Misses-misses0)
	}
	bsp.Attr("blocks", int64(len(blocks))).End()
	return blocks, int(csPruned.Load())
}

// enforceNG applies the sparse-neighborhood condition: blocks are
// processed globally in descending score order; each record admits a block
// only while its distinct neighborhood (records sharing an admitted block
// with it) stays within NG*MaxMinSup, and a block vetoed by any member is
// pruned. It also drops blocks scoring at or below MinScore. It returns
// the surviving blocks (descending score), the lowest surviving score
// (the effective iteration threshold), and the number of blocks the
// neighborhood cap vetoed. spent is indexed by dense record index and
// sized to the collection.
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
		if b.Score <= cfg.MinScore {
			break // ordered by score: everything after is below too
		}
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
