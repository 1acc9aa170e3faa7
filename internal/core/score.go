package core

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/spill"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// candidate is one blocking candidate on its way through the scoring
// stage. blockScore is set only by a source whose stream carries it. pos
// is the pair's collection positions when the source carries them, and
// noPos otherwise.
type candidate struct {
	pair       record.Pair
	blockScore float64
	pos        mfiblocks.PairPosition
}

// noPos marks a candidate without positions. No pair has it: its two
// positions are equal.
const noPos = ^mfiblocks.PairPosition(0)

// positions returns the candidate's collection positions in work. They
// come from pos when it names the pair's two reports there; otherwise
// — no positions, or positions into another order of the records — they
// come from the BookID index, byID is true, and pos becomes noPos, so
// the source looks the block score up by pair too.
func (c *candidate) positions(work *record.Collection) (ia, ib int, byID bool) {
	if c.pos != noPos {
		ia, ib = c.pos.Split()
		if ia < len(work.Records) && ib < len(work.Records) &&
			work.Records[ia].BookID == c.pair.A && work.Records[ib].BookID == c.pair.B {
			return ia, ib, false
		}
		c.pos = noPos
	}
	return work.Index(c.pair.A), work.Index(c.pair.B), true
}

// candidateSource is the stream of candidates the scoring stage consumes —
// the one thing that differs between a blocking result whose candidates
// stayed resident and one whose candidates spilled. next fills buf from
// the front and returns how many candidates it wrote, 0 at the end of the
// stream; blockScore returns the block score of a candidate next
// delivered, and is asked only for the candidates the filters and the
// model kept; close releases what backs the stream. The scoring workers
// call next and blockScore concurrently.
type candidateSource interface {
	next(buf []candidate) (int, error)
	blockScore(c *candidate) float64
	close() error
}

// pairSlice streams a resident candidate set in first-seen order. A
// caller claims a range with one atomic add. When the result carries its
// aligned columns, each candidate comes with its positions and block
// score; a candidate without them, or whose positions the scorer
// rejected, costs a map probe for its score, paid by blockScore for the
// kept candidates alone.
type pairSlice struct {
	pairs  []record.Pair
	scores map[record.Pair]float64
	// positions and blockScores are the result's columns, or nil when it
	// has none or they do not align with pairs.
	positions   []mfiblocks.PairPosition
	blockScores []float64
	cursor      atomic.Int64
}

// residentPairs is the candidate source of a resident blocking result.
func residentPairs(blk *mfiblocks.Result) *pairSlice {
	s := &pairSlice{pairs: blk.Pairs, scores: blk.PairScores}
	if len(blk.PairPositions) == len(blk.Pairs) && len(blk.PairBlockScores) == len(blk.Pairs) {
		s.positions, s.blockScores = blk.PairPositions, blk.PairBlockScores
	}
	return s
}

func (s *pairSlice) next(buf []candidate) (int, error) {
	end := int64(len(s.pairs))
	hi := s.cursor.Add(int64(len(buf)))
	lo := min(hi-int64(len(buf)), end)
	claimed := s.pairs[lo:min(hi, end)]
	if s.positions == nil {
		for i, p := range claimed {
			buf[i] = candidate{pair: p, pos: noPos}
		}
		return len(claimed), nil
	}
	pos, scores := s.positions[lo:], s.blockScores[lo:]
	for i, p := range claimed {
		buf[i] = candidate{p, scores[i], pos[i]}
	}
	return len(claimed), nil
}

func (s *pairSlice) blockScore(c *candidate) float64 {
	if c.pos != noPos {
		return c.blockScore
	}
	return s.scores[c.pair]
}

func (*pairSlice) close() error { return nil }

// spillMerge streams a spilled candidate set through its (A, B)-sorted
// merge, opened on first use; each merged entry carries its block score.
// The merge is single-shot, so close releases the run files rather than
// leaving their descriptors open for the Resolution's lifetime; the
// accumulator's Stats stay valid afterwards.
type spillMerge struct {
	pairs *spill.Pairs
	mu    sync.Mutex // one iterator, one caller at a time
	it    *spill.Iter
}

func (s *spillMerge) next(buf []candidate) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.it == nil {
		it, err := s.pairs.Iter()
		if err != nil {
			return 0, err
		}
		s.it = it
	}
	for n := range buf {
		p, score, err := s.it.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		buf[n] = candidate{p, score, noPos}
	}
	return len(buf), nil
}

func (*spillMerge) blockScore(c *candidate) float64 { return c.blockScore }

func (s *spillMerge) close() error { return s.pairs.Close() }

// candidatesOf returns the blocking result's candidate stream; a spilled
// run's merge-open span lands under sp.
func candidatesOf(blk *mfiblocks.Result, sp *trace.Span) candidateSource {
	if blk.Spill == nil {
		return residentPairs(blk)
	}
	blk.Spill.Trace = sp
	return &spillMerge{pairs: blk.Spill}
}

// scoreResult is the scoring stage's output before ranking. The telemetry
// fields (candidates, features, scores) ride along so resolve can fold
// them into the RunReport without re-walking the matches.
type scoreResult struct {
	matches    []RankedMatch
	candidates int
	sameSrc    int
	byModel    int
	// byID counts the candidates whose positions came from the BookID
	// index rather than from their source.
	byID int
	// features counts the features the model pulled, over every candidate
	// it scored. A pair's count depends on the pair and the model alone,
	// so the total is the same for any source and worker count.
	features int64
	scores   *telemetry.Histogram
}

// scoreChunkSize is the number of candidates a scoring worker claims at a
// time. Small enough to balance skewed chunks, large enough that the
// per-chunk bookkeeping is noise.
const scoreChunkSize = 512

// scoreCandidates is the scoring stage: every candidate of src goes
// through the SameSrc filter, the model — which pulls from the records'
// cached profiles only the features its reachable splitters test — and
// the Cls condition; a candidate that survives them gets its block score
// from src. workers goroutines each pull scoreChunkSize candidates at a
// time into a buffer of their own and share nothing until they hand their
// matches over; width 1 runs one worker.
// Profiles are built only when a model will read them. src is closed on
// every path, and a source error stops every worker before its next pull.
//
// Matches come back in no particular order: sortMatches is a total order
// over (score, pair), so ranking erases whatever order the source and the
// workers produced — an (A, B)-sorted merge and a first-seen slice, one
// worker or eight, all rank identically.
func scoreCandidates(opts *Options, work *record.Collection, src candidateSource, cache *features.ProfileCache, workers int, sp *trace.Span) (total scoreResult, err error) {
	defer func() {
		if cerr := src.close(); err == nil {
			err = cerr
		}
	}()

	var profs []*features.Profile
	if opts.Model != nil {
		psp := sp.Child("profile_build", trace.WithKind(trace.KindSetup)).
			Attr("records", int64(work.Len()))
		profs = cache.Build(work, workers)
		psp.End()
	}
	ex := cache.Extractor()

	// The per-pair score distribution is merged once per worker, so the
	// hot loop never contends on a shared cache line.
	total.scores = telemetry.NewHistogram(telemetry.ScoreBuckets)

	var mu sync.Mutex // guards err and total
	var wg sync.WaitGroup
	worker := func(w int) {
		defer wg.Done()
		wsp := sp.Child("score_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
		buf := make([]candidate, scoreChunkSize)
		// The worker's evaluator owns its kernel memo for the whole call:
		// the candidates of every chunk share the few thousand distinct
		// name values the memo holds.
		var ev features.PairEval
		if opts.Model != nil {
			ev.MemoizeKernels()
		}
		local := scoreResult{scores: telemetry.NewHistogram(telemetry.ScoreBuckets)}
		for {
			mu.Lock()
			failed := err != nil
			mu.Unlock()
			if failed {
				break
			}
			n, nerr := src.next(buf)
			if nerr != nil {
				mu.Lock()
				if err == nil {
					err = nerr
				}
				mu.Unlock()
			}
			if n == 0 {
				break
			}
			for i := range buf[:n] {
				c := &buf[i]
				ia, ib, byID := c.positions(work)
				if byID {
					local.byID++
				}
				ra, rb := work.Records[ia], work.Records[ib]
				if opts.SameSrc && ra.Source != "" && ra.Source == rb.Source {
					local.sameSrc++
					continue
				}
				m := RankedMatch{Pair: c.pair}
				if opts.Model != nil {
					ev.Reset(ex, profs[ia], profs[ib])
					m.Score = opts.Model.ScorePair(&ev)
					local.features += int64(bits.OnesCount64(ev.Evaluated()))
					if opts.Classify && m.Score <= 0 {
						local.byModel++
						continue
					}
				}
				m.BlockScore = src.blockScore(c)
				if opts.Model == nil {
					m.Score = m.BlockScore
				}
				local.scores.Observe(m.Score)
				local.matches = append(local.matches, m)
			}
			local.candidates += n
			opts.Progress.Add(int64(n))
		}
		wsp.Attr("pairs", int64(local.candidates)).End()
		mu.Lock()
		if total.matches == nil {
			total.matches = local.matches // the first to finish hands its slice over
		} else {
			total.matches = append(total.matches, local.matches...)
		}
		total.candidates += local.candidates
		total.sameSrc += local.sameSrc
		total.byModel += local.byModel
		total.byID += local.byID
		total.features += local.features
		_ = total.scores.Merge(local.scores) // both are ScoreBuckets: it cannot fail
		mu.Unlock()
	}
	wg.Add(workers)
	for w := range workers {
		go worker(w)
	}
	wg.Wait()
	return total, err
}

// ScoreCandidates runs the scoring stage alone — SameSrc filtering,
// demand-driven model scoring, classification, and ranking — over the
// resident candidates of an existing blocking result, exactly as Run's
// scoring stage does. Callers that re-block rarely but re-score often
// (threshold sweeps, model comparisons, the rescore benchmark workload)
// use it to skip the blocking stage. work must hold the records blk was
// produced from. It reads blk.Pairs and PairScores, and the aligned
// PairPositions and PairBlockScores when blk has them: a candidate whose
// positions name its two reports in work is scored by position, and any
// other — work in another record order, columns that do not align with
// Pairs, or none at all — by BookID, with the same result. A result
// whose candidates spilled holds them in blk.Spill, which
// benchmark/staged.go drains into Pairs and PairScores before calling
// it.
func ScoreCandidates(opts Options, work *record.Collection, blk *mfiblocks.Result) []RankedMatch {
	return scoreResident(&opts, work, blk).matches
}

// scoreResident is ScoreCandidates with the scoring stage's counters.
func scoreResident(opts *Options, work *record.Collection, blk *mfiblocks.Result) scoreResult {
	cache := features.NewProfileCache(scoringExtractor(opts))
	// A resident candidate slice cannot fail.
	st, _ := scoreCandidates(opts, work, residentPairs(blk), cache, opts.workers(), nil)
	sortMatches(st.matches)
	return st
}
