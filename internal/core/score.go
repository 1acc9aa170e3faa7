package core

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/spill"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// candidate is one blocking candidate on its way through the scoring
// stage. blockScore is set only by a source whose stream carries it.
type candidate struct {
	pair       record.Pair
	blockScore float64
}

// candidateSource is the stream of candidates the scoring stage consumes —
// the one thing that differs between an in-memory blocking result and a
// spilled one. next fills buf from the front and returns how many
// candidates it wrote, 0 at the end of the stream; blockScore returns the
// block score of a candidate next delivered, and is asked only for the
// candidates the filters and the model kept; close releases what backs
// the stream. The scoring workers call next and blockScore concurrently.
type candidateSource interface {
	next(buf []candidate) (int, error)
	blockScore(c *candidate) float64
	close() error
}

// pairSlice streams an in-memory candidate set in first-seen order. A
// caller claims a range with one atomic add; a pair's score costs a map
// probe, paid by blockScore for the kept candidates alone.
type pairSlice struct {
	pairs  []record.Pair
	scores map[record.Pair]float64
	cursor atomic.Int64
}

func (s *pairSlice) next(buf []candidate) (int, error) {
	end := int64(len(s.pairs))
	hi := s.cursor.Add(int64(len(buf)))
	claimed := s.pairs[min(hi-int64(len(buf)), end):min(hi, end)]
	for i, p := range claimed {
		buf[i] = candidate{pair: p}
	}
	return len(claimed), nil
}

func (s *pairSlice) blockScore(c *candidate) float64 { return s.scores[c.pair] }

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
		buf[n] = candidate{p, score}
	}
	return len(buf), nil
}

func (*spillMerge) blockScore(c *candidate) float64 { return c.blockScore }

func (s *spillMerge) close() error { return s.pairs.Close() }

// candidatesOf returns the blocking result's candidate stream; a spilled
// run's merge-open span lands under sp.
func candidatesOf(blk *mfiblocks.Result, sp *trace.Span) candidateSource {
	if blk.Spill == nil {
		return &pairSlice{pairs: blk.Pairs, scores: blk.PairScores}
	}
	blk.Spill.Trace = sp
	return &spillMerge{pairs: blk.Spill}
}

// scoreResult is the scoring stage's output before ranking. The telemetry
// fields (candidates, features, chunks, scores) ride along so resolve can
// fold them into the RunReport without re-walking the matches.
type scoreResult struct {
	matches    []RankedMatch
	candidates int
	sameSrc    int
	byModel    int
	// features counts the features the model pulled, over every candidate
	// it scored. A pair's count depends on the pair and the model alone,
	// so the total is the same for any source and worker count.
	features int64
	chunks   int
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
// matches over; workers <= 1 runs the same loop on the calling goroutine.
// Profiles are built only when a model will read them. src is closed on
// every path, and a source error stops every worker before its next pull.
//
// Matches come back in no particular order: sortMatches is a total order
// over (score, pair), so ranking erases whatever order the source and the
// workers produced — an (A, B)-sorted merge and a first-seen slice, one
// worker or eight, all rank identically.
func scoreCandidates(opts *Options, work *record.Collection, src candidateSource, cache *features.ProfileCache, workers int, reg *telemetry.Registry, sp *trace.Span) (total scoreResult, err error) {
	defer func() {
		if cerr := src.close(); err == nil {
			err = cerr
		}
	}()

	var profs []*features.Profile
	if opts.Model != nil {
		t0 := time.Now()
		psp := sp.Child("profile_build", trace.WithKind(trace.KindSetup)).
			Attr("records", int64(work.Len()))
		profs = cache.Build(work, workers)
		psp.End()
		reg.Timer("core_profile_build_seconds").Observe(time.Since(t0))
	}
	ex := cache.Extractor()

	// Shared instruments are touched once per chunk, and the per-pair
	// score distribution is merged once per worker, so the hot loop never
	// contends on a shared cache line.
	total.scores = telemetry.NewHistogram(telemetry.ScoreBuckets)
	chunkTimer := reg.Timer("core_score_chunk_seconds")
	chunkCounter := reg.Counter("core_score_chunks_total")
	pairCounter := reg.Counter("core_scored_pairs_total")

	var mu sync.Mutex // guards err and total
	worker := func(w int) {
		wsp := sp.Child("score_worker", trace.WithKind(trace.KindWorker), trace.WithTrack(w+1))
		buf := make([]candidate, scoreChunkSize)
		var ev features.PairEval
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
			tc := time.Now()
			for i := range buf[:n] {
				c := &buf[i]
				ia, ib := work.Index(c.pair.A), work.Index(c.pair.B)
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
			local.chunks++
			chunkTimer.Observe(time.Since(tc))
			chunkCounter.Inc()
			pairCounter.Add(int64(n))
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
		total.features += local.features
		total.chunks += local.chunks
		total.scores.Merge(local.scores)
		mu.Unlock()
	}
	if workers <= 1 {
		worker(0)
		return total, err
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w)
		}(w)
	}
	wg.Wait()
	return total, err
}

// ScoreCandidates runs the scoring stage alone — SameSrc filtering,
// demand-driven model scoring, classification, and ranking — over the
// in-memory candidates of an existing blocking result, exactly as Run's
// scoring stage does. Callers that re-block rarely but re-score often
// (threshold sweeps, model comparisons, the rescore benchmark workload)
// use it to skip the blocking stage. work must be the collection blk was
// produced from. It reads blk.Pairs and PairScores even when blk.Spill is
// set: benchmark/staged.go passes a result whose spent spill it has
// drained into them.
func ScoreCandidates(opts Options, work *record.Collection, blk *mfiblocks.Result) []RankedMatch {
	cache := features.NewProfileCache(features.NewExtractor(opts.Geo))
	src := &pairSlice{pairs: blk.Pairs, scores: blk.PairScores}
	// An in-memory candidate slice cannot fail.
	st, _ := scoreCandidates(&opts, work, src, cache, opts.workers(), opts.metrics(), nil)
	sortMatches(st.matches)
	return st.matches
}
