package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// scoringColumns returns blk's candidates as the two aligned columns the
// scoring stage reads: each candidate's positions in work, the lower
// BookID's in the high half, and its block score. They are blk's own
// PairPositions and PairBlockScores, shared, when those are complete and
// index work's record order — the case of every resident result a run
// produced over work, checked in O(records). Otherwise each, which must
// yield every candidate once with its block score, is read once and both
// BookIDs of every pair are looked up in work; an error from each comes
// back as it is. This is the only place the scoring stage turns BookIDs
// into positions. A pair naming a report outside work gets a position no
// record has, which the scoring stage fails on.
func scoringColumns(work *record.Collection, blk *mfiblocks.Result, each func(func(record.Pair, float64)) error) ([]mfiblocks.PairPosition, []float64, error) {
	n := len(blk.Pairs)
	if len(blk.PairPositions) == n && len(blk.PairBlockScores) == n &&
		slices.EqualFunc(work.Records, blk.BookIDs, func(r *record.Record, id int64) bool { return r.BookID == id }) {
		return blk.PairPositions, blk.PairBlockScores, nil
	}
	pos := make([]mfiblocks.PairPosition, 0, n)
	scores := make([]float64, 0, n)
	err := each(func(p record.Pair, score float64) {
		pos = append(pos, mfiblocks.PairPosition(work.Index(p.A))<<32|mfiblocks.PairPosition(uint32(work.Index(p.B))))
		scores = append(scores, score)
	})
	return pos, scores, err
}

// eachResident yields blk's resident candidates, Pairs with their
// PairScores, and never reads blk.Spill.
func eachResident(blk *mfiblocks.Result) func(func(record.Pair, float64)) error {
	return func(fn func(record.Pair, float64)) error {
		for _, p := range blk.Pairs {
			fn(p, blk.PairScores[p])
		}
		return nil
	}
}

// scoreResult is the scoring stage's output before ranking. The telemetry
// fields (features, scores) ride along so resolve can fold them into the
// RunReport without re-walking the matches.
type scoreResult struct {
	matches []RankedMatch
	sameSrc int
	byModel int
	// features counts the features the model pulled, over every candidate
	// it scored. A pair's count depends on the pair and the model alone,
	// so the total is the same for any candidate order and worker count.
	features int64
	scores   *telemetry.Histogram
}

// scoreChunkSize is the number of candidates a scoring worker claims at a
// time. Small enough to balance skewed chunks, large enough that the
// per-chunk bookkeeping is noise.
const scoreChunkSize = 512

// scoreCandidates is the scoring stage over the aligned columns pos and
// blockScores (scoringColumns): every candidate goes through the SameSrc
// filter, the model — which pulls from the records' cached profiles only
// the features its reachable splitters test — and the Cls condition; a
// candidate that survives them gets its block score from blockScores.
// workers goroutines claim scoreChunkSize ranges of the columns off one
// atomic cursor and share nothing until they hand their matches over;
// width 1 runs one worker. Each match's pair is rebuilt from its two
// records' BookIDs. Profiles are built only when a model will read them.
//
// Matches come back in no particular order: sortMatches is a total order
// over (score, pair), so ranking erases whatever order the columns and
// the workers produced — an (A, B)-sorted merge and a first-seen slice,
// one worker or eight, all rank identically.
func scoreCandidates(opts *Options, work *record.Collection, pos []mfiblocks.PairPosition, blockScores []float64, cache *features.ProfileCache, workers int, sp *trace.Span) scoreResult {
	var profs []*features.Profile
	if opts.Model != nil {
		psp := sp.Child("profile_build", trace.WithKind(trace.KindSetup)).
			Attr("records", int64(work.Len()))
		profs = cache.Build(work, 1)
		psp.End()
	}
	ex := cache.Extractor()

	// The per-pair score distribution is merged once per worker, so the
	// hot loop never contends on a shared cache line.
	total := scoreResult{scores: telemetry.NewHistogram(telemetry.ScoreBuckets)}
	var cursor atomic.Int64
	var mu sync.Mutex // guards total
	var wg sync.WaitGroup
	worker := func(w int) {
		defer wg.Done()
		wsp := sp.Child("score_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
		// The worker's evaluator owns its kernel memo for the whole call:
		// the candidates of every chunk share the few thousand distinct
		// name values the memo holds.
		var ev features.PairEval
		if opts.Model != nil {
			ev.MemoizeKernels()
		}
		local := scoreResult{scores: telemetry.NewHistogram(telemetry.ScoreBuckets)}
		claimed := 0
		for {
			hi := int(cursor.Add(scoreChunkSize))
			lo := hi - scoreChunkSize
			if lo >= len(pos) {
				break
			}
			hi = min(hi, len(pos))
			for i, p := range pos[lo:hi] {
				ia, ib := p.Split()
				ra, rb := work.Records[ia], work.Records[ib]
				if opts.SameSrc && ra.Source != "" && ra.Source == rb.Source {
					local.sameSrc++
					continue
				}
				m := RankedMatch{Pair: record.Pair{A: ra.BookID, B: rb.BookID}, BlockScore: blockScores[lo+i]}
				if opts.Model != nil {
					ev.Reset(ex, profs[ia], profs[ib])
					m.Score = opts.Model.ScorePair(&ev)
					local.features += int64(bits.OnesCount64(ev.Evaluated()))
					if opts.Classify && m.Score <= 0 {
						local.byModel++
						continue
					}
				} else {
					m.Score = m.BlockScore
				}
				local.scores.Observe(m.Score)
				local.matches = append(local.matches, m)
			}
			claimed += hi - lo
			opts.Progress.Add(int64(hi - lo))
		}
		wsp.Attr("pairs", int64(claimed)).End()
		mu.Lock()
		if total.matches == nil {
			total.matches = local.matches // the first to finish hands its slice over
		} else {
			total.matches = append(total.matches, local.matches...)
		}
		total.sameSrc += local.sameSrc
		total.byModel += local.byModel
		total.features += local.features
		_ = total.scores.Merge(local.scores) // both are ScoreBuckets: it cannot fail
		mu.Unlock()
	}
	wg.Add(workers)
	for w := range workers {
		go worker(w)
	}
	wg.Wait()
	return total
}

// ScoreCandidates runs the scoring stage alone — SameSrc filtering,
// demand-driven model scoring, classification, and ranking — over the
// resident candidates of an existing blocking result, exactly as Run's
// scoring stage does. Callers that re-block rarely but re-score often
// (threshold sweeps, model comparisons, the rescore benchmark workload)
// use it to skip the blocking stage. work must hold the records blk was
// produced from. It scores blk's own PairPositions and PairBlockScores
// when they are complete and index work's record order (blk.BookIDs),
// and otherwise converts Pairs and PairScores to positions in work once,
// with the same result. It never reads blk.Spill: a result whose
// candidates spilled is scored from the Pairs and PairScores its caller
// drained the merge into (benchmark/staged.go does, and calls it with
// Spill still set to the closed accumulator).
func ScoreCandidates(opts Options, work *record.Collection, blk *mfiblocks.Result) []RankedMatch {
	pos, scores, _ := scoringColumns(work, blk, eachResident(blk)) // a resident walk cannot fail
	st := scoreCandidates(&opts, work, pos, scores, features.NewProfileCache(scoringExtractor(&opts)), opts.workers(), nil)
	sortMatches(st.matches)
	return st.matches
}
