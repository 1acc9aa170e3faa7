// Package core is the uncertain entity resolution pipeline of the paper:
// preprocessing (name and place equivalence classes), MFIBlocks soft
// blocking, pair feature extraction, ADTree scoring, and — the heart of
// the uncertain-ER model — a *ranked* resolution that is disambiguated
// only at query time, by a certainty threshold and a granularity choice
// (person vs. family), instead of a single crisp clustering.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/adtree"
	"repro/internal/features"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Options configures a pipeline run.
type Options struct {
	// Blocking parameterizes the MFIBlocks stage.
	Blocking mfiblocks.Config
	// Geo resolves place distances for feature extraction (and for
	// ExpertSim blocking if enabled there).
	Geo similarity.GeoDistancer
	// Preprocess folds name and place spelling variants into their
	// equivalence classes before blocking, as the Names Project
	// preprocessing did.
	Preprocess bool
	// Gazetteer, when set, canonicalizes place names during
	// preprocessing; nil falls back to the built-in catalogue.
	Gazetteer *gazetteer.Gazetteer
	// SameSrc discards candidate pairs that share a source (the same
	// victim list or the same testimony submitter): the same person is
	// unlikely to appear twice in one source.
	SameSrc bool
	// Model scores candidate pairs; nil leaves matches ranked by block
	// score only.
	Model *adtree.Model
	// Classify drops pairs the model scores at or below zero (the Cls
	// condition). Requires Model.
	Classify bool
	// Workers bounds the goroutines used by the pipeline's parallel
	// stages: candidate-pair scoring and — unless Blocking.Workers is set
	// explicitly — the blocking stage's MFI mining and block construction.
	// 0 means GOMAXPROCS, 1 runs the exact serial paths. Output is
	// deterministic — identical Matches order, candidate pairs, and
	// discard counters — for every worker count.
	Workers int
	// MemoSize does nothing: the scoring stage runs the similarity
	// kernels directly and keeps no pair cache. The field remains only
	// because benchmark/staged.go sizes its own features.PairMemo from it.
	MemoSize int
	// Metrics receives pipeline counters, timings, and distributions
	// (core_*, mfiblocks_*, fpgrowth_* families); nil falls back to
	// telemetry.Default().
	Metrics *telemetry.Registry
	// Trace, when set, records the run's hierarchical span tree — run →
	// stage → iteration → worker — plus any flight-recorder series
	// the caller started on it. The tree lands in Report.Spans and the
	// tracer survives on Resolution.Trace for the Chrome export. Nil
	// disables tracing at one nil check per span site.
	Trace *trace.Tracer
	// Progress, when set, receives live stage transitions and item
	// counts. Callers own Start/Stop. Nil disables.
	Progress *trace.Progress
}

// NewOptions returns the deployment defaults: preprocessing on, default
// blocking, SameSrc and classification enabled once a model is supplied.
func NewOptions(geo similarity.GeoDistancer) Options {
	return Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        geo,
		Preprocess: true,
		SameSrc:    true,
		Classify:   true,
	}
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) metrics() *telemetry.Registry {
	if o.Metrics != nil {
		return o.Metrics
	}
	return telemetry.Default()
}

// Validate reports the first problem with the options. Run calls it,
// and the CLIs call it right after flag parsing so a bad -workers or a
// NaN blocking parameter fails at the flag, not deep inside the
// scoring pool.
func (o *Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", o.Workers)
	}
	if o.Classify && o.Model == nil {
		return fmt.Errorf("core: Classify requires a Model")
	}
	if o.Model != nil {
		// The scoring stage reads the model's feature ids as indexes into
		// the extractor's features, so the two must be the same list.
		want := features.Defs()
		if len(o.Model.Defs) != len(want) {
			return fmt.Errorf("core: Model lists %d features, the extractor computes %d", len(o.Model.Defs), len(want))
		}
		for i, d := range o.Model.Defs {
			if d.Name != want[i].Name || d.Kind != want[i].Kind {
				return fmt.Errorf("core: Model feature %d is %s (kind %d), the extractor's is %s (kind %d)", i, d.Name, d.Kind, want[i].Name, want[i].Kind)
			}
		}
	}
	if err := o.Blocking.Validate(); err != nil {
		return fmt.Errorf("core: blocking: %w", err)
	}
	return nil
}

// RankedMatch is one candidate pair with its similarity evidence.
type RankedMatch struct {
	Pair record.Pair
	// BlockScore is the best MFIBlocks block score containing the pair.
	BlockScore float64
	// Score is the ADTree confidence when a model is set, otherwise the
	// block score. Matches are ranked by it.
	Score float64
}

// Resolution is the uncertain-ER outcome: a ranked list of possible
// matches, resolved into entities only on demand.
type Resolution struct {
	// Matches are ranked by descending Score.
	Matches []RankedMatch
	// Blocking is the raw MFIBlocks result.
	Blocking *mfiblocks.Result
	// Collection is the (possibly preprocessed) collection resolved.
	Collection *record.Collection
	// DiscardedSameSrc counts candidates dropped by the SameSrc filter.
	DiscardedSameSrc int
	// DiscardedByModel counts candidates dropped by classification.
	DiscardedByModel int
	// Report is the run's telemetry breakdown: per-stage wall clock,
	// blocking iterations, scoring counters, and the score
	// distribution. The server exposes it at /api/report; the CLIs
	// write it with -report.
	Report *telemetry.RunReport
	// Trace is the run's tracer when Options.Trace was set: the full
	// span record behind Report.Spans, exportable as Chrome trace-event
	// JSON (the server's /api/trace, the CLIs' -trace-out). Nil when the
	// run was untraced.
	Trace *trace.Tracer

	// model and profiles carry the scoring machinery into the query
	// paths: ScorePair (and the server's /api/pair) re-score ad-hoc pairs
	// without redoing per-record extraction work.
	model    *adtree.Model
	profiles *features.ProfileCache

	// queryOnce/queryIdx belong to the query layer (entity.go, search.go):
	// the record order, merge forest and name index every query reads,
	// built by the first one.
	queryOnce sync.Once
	queryIdx  *queryIndex

	// pairOnce/pairIdx lazily index Matches by pair for ScorePair when
	// candidate pairs were spilled to disk and Blocking.PairScores was
	// never materialized. Only query paths that ask for ad-hoc pairs pay
	// the index's memory.
	pairOnce sync.Once
	pairIdx  map[record.Pair]int
}

// wireDefaults threads the run-wide registry and worker knob into the
// blocking config unless the caller pinned its own.
func wireDefaults(opts *Options, reg *telemetry.Registry) {
	if opts.Blocking.Metrics == nil {
		// One registry for the whole run: blocking (and its miner)
		// report where the pipeline reports.
		opts.Blocking.Metrics = reg
	}
	if opts.Blocking.Workers == 0 {
		// One worker knob for the whole pipeline: -workers bounds the
		// blocking fan-out exactly as it bounds pair scoring, unless the
		// blocking config pins its own count.
		opts.Blocking.Workers = opts.Workers
	}
	if opts.Blocking.Progress == nil {
		// One progress hook for the whole pipeline: the blocking stage
		// posts covered-record counts to the same sink the ingest and
		// scoring stages use.
		opts.Blocking.Progress = opts.Progress
	}
}

// Run executes the pipeline over an in-memory collection, recording a
// per-stage telemetry breakdown (attached to the Resolution as Report)
// and registry metrics along the way. It is runPipeline over a
// CollectionSource with the full records retained; candidate pairs stay
// in memory (Blocking.Pairs, PairScores, PairBlocks) unless the caller
// set Blocking.SpillPairs.
func Run(opts Options, coll *record.Collection) (*Resolution, error) {
	return runPipeline(StreamOptions{Options: opts, RetainRecords: true}, NewCollectionSource(coll))
}

// resolve runs the pipeline's back half — scoring and ranking — over a
// finished blocking result, then assembles the Resolution and its
// report. Spilled and in-memory candidate sets take the same path from
// this point on.
func resolve(opts *Options, reg *telemetry.Registry, report *telemetry.RunReport, stages *stageRunner, work *record.Collection, blk *mfiblocks.Result) (*Resolution, error) {
	report.Blocking = blockingReport(blk)
	res := &Resolution{
		Blocking:   blk,
		Collection: work,
		model:      opts.Model,
		profiles:   features.NewProfileCache(features.NewExtractor(opts.Geo)),
		Report:     report,
	}

	var st scoreResult
	if err := stages.run("scoring", func(sp *trace.Span) (map[string]int64, error) {
		// A spilled run learns its distinct-pair total only at the merge.
		opts.Progress.Stage("scoring", int64(len(blk.Pairs)))
		var err error
		st, err = scoreCandidates(opts, work, candidatesOf(blk, sp), res.profiles, opts.workers(), reg, sp)
		if err != nil {
			return nil, fmt.Errorf("core: scoring: %w", err)
		}
		res.Matches = st.matches
		res.DiscardedSameSrc = st.sameSrc
		res.DiscardedByModel = st.byModel
		return map[string]int64{
			"candidates":       int64(st.candidates),
			"matches":          int64(len(st.matches)),
			"same_src_dropped": int64(st.sameSrc),
			"model_dropped":    int64(st.byModel),
		}, nil
	}); err != nil {
		return nil, err
	}

	if err := stages.run("rank", func(sp *trace.Span) (map[string]int64, error) {
		opts.Progress.Stage("rank", int64(len(res.Matches)))
		sortMatches(res.Matches)
		opts.Progress.Add(int64(len(res.Matches)))
		return map[string]int64{"matches": int64(len(res.Matches))}, nil
	}); err != nil {
		return nil, err
	}

	// A spilled run learns its exact candidate count only at the merge,
	// so the blocking report is finalized after scoring.
	report.Blocking.Pairs = st.candidates
	if blk.Spill != nil {
		// Stats stay valid after Close: runs, spilled entries/bytes, and
		// what the scoring merge delivered back.
		ss := blk.Spill.Stats()
		report.Blocking.SpillRuns = ss.Runs
		report.Blocking.SpilledEntries = ss.SpilledEntries
		report.Blocking.SpilledBytes = ss.SpilledBytes
		report.Blocking.MergedEntries = ss.MergedEntries
		report.Blocking.MergedBytes = ss.MergedBytes
	}
	report.Scoring = scoringReport(&st, res.profiles, opts.workers())
	stages.root.Attr("matches", int64(len(res.Matches))).End()
	if opts.Trace != nil {
		res.Trace = opts.Trace
		report.Spans = opts.Trace.Tree(trace.Full)
	}
	reg.Counter("core_runs_total").Inc()
	reg.Counter("core_candidate_pairs_total").Add(int64(st.candidates))
	reg.Counter("core_matches_total").Add(int64(len(res.Matches)))
	reg.Counter("core_samesrc_dropped_total").Add(int64(st.sameSrc))
	reg.Counter("core_model_dropped_total").Add(int64(st.byModel))
	if st.scores != nil {
		reg.Histogram("core_score_distribution", telemetry.ScoreBuckets).Merge(st.scores)
	}
	cs := res.profiles.Stats()
	reg.Gauge("core_profiles_cached").Set(float64(cs.Size))
	reg.Gauge(telemetry.FamilyInternedStrings).Set(float64(res.profiles.Extractor().InternedStrings()))
	telemetry.Log().Info("core run done",
		"records", work.Len(), "candidates", st.candidates,
		"matches", len(res.Matches), "workers", opts.workers(),
		"elapsed", time.Duration(report.TotalNS))
	return res, nil
}

// blockingCounters summarizes a blocking result for its stage entry. A
// spilled run reports its spill activity instead of an exact pair count
// — distinct pairs are only known once the scoring stage merges the
// runs.
func blockingCounters(blk *mfiblocks.Result) map[string]int64 {
	c := map[string]int64{
		"blocks":     int64(len(blk.Blocks)),
		"pairs":      int64(len(blk.Pairs)),
		"iterations": int64(len(blk.Iterations)),
	}
	if blk.Spill != nil {
		st := blk.Spill.Stats()
		c["spill_runs"] = int64(st.Runs)
		c["spill_entries"] = st.SpilledEntries
	}
	return c
}

// blockingReport converts the blocking result into its report form.
func blockingReport(blk *mfiblocks.Result) *telemetry.BlockingReport {
	covered := 0
	for _, c := range blk.Covered {
		if c {
			covered++
		}
	}
	br := &telemetry.BlockingReport{
		Blocks:         len(blk.Blocks),
		Pairs:          len(blk.Pairs),
		Covered:        covered,
		CacheHits:      blk.Cache.Hits,
		CacheMisses:    blk.Cache.Misses,
		CacheEvictions: blk.Cache.Evictions,
		CacheEntries:   blk.Cache.Entries,
	}
	for _, it := range blk.Iterations {
		br.Iterations = append(br.Iterations, telemetry.IterationReport{
			MinSup:     it.MinSup,
			Active:     it.Active,
			MFIs:       it.MFIs,
			Blocks:     it.Blocks,
			CSPruned:   it.CSPruned,
			NGPruned:   it.NGPruned,
			NewPairs:   it.NewPairs,
			CoveredNow: it.CoveredNow,
			MinTh:      it.MinTh,
			DurationNS: it.Elapsed.Nanoseconds(),
		})
	}
	return br
}

// scoringReport converts the scoring stage's outcome into its report
// form.
func scoringReport(st *scoreResult, cache *features.ProfileCache, workers int) *telemetry.ScoringReport {
	cs := cache.Stats()
	sr := &telemetry.ScoringReport{
		Candidates:        st.candidates,
		SameSrcDropped:    st.sameSrc,
		ModelDropped:      st.byModel,
		Matches:           len(st.matches),
		Workers:           workers,
		Chunks:            st.chunks,
		FeaturesEvaluated: st.features,
		ProfilesBuilt:     int(cs.Built),
		ProfileHits:       cs.Hits,
		ProfileMisses:     cs.Misses,
		InternedStrings:   cache.Extractor().InternedStrings(),
	}
	if st.scores != nil {
		snap := st.scores.Snapshot()
		sr.Scores = &snap
	}
	return sr
}

// sortMatches ranks matches by descending score, breaking ties by pair —
// a total order over distinct pairs, so the ranking is independent of the
// pre-sort order the scoring stage produced.
func sortMatches(ms []RankedMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		a, b := ms[i].Pair, ms[j].Pair
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// Profiles returns the resolution's record-profile cache. Query paths use
// it to re-score pairs without re-deriving per-record features; profiles
// are built lazily on first use.
func (r *Resolution) Profiles() *features.ProfileCache { return r.profiles }

// ScorePair validation errors, distinguishable with errors.Is: a
// self-pair is a malformed request however the IDs resolve, while an
// unknown report is a lookup miss. API layers map the former to 400 and
// the latter to 404.
var (
	ErrSelfPair      = errors.New("core: report paired with itself")
	ErrUnknownReport = errors.New("core: unknown report")
)

// ScorePair scores an arbitrary pair of reports on demand, through the
// cached profiles: the model confidence when the resolution carries a
// model, otherwise the pair's blocking score (0 when blocking never
// proposed the pair). It is safe for concurrent use.
func (r *Resolution) ScorePair(aID, bID int64) (RankedMatch, error) {
	if aID == bID {
		return RankedMatch{}, fmt.Errorf("%w: report %d", ErrSelfPair, aID)
	}
	ra, rb := r.Collection.ByID(aID), r.Collection.ByID(bID)
	if ra == nil {
		return RankedMatch{}, fmt.Errorf("%w: %d", ErrUnknownReport, aID)
	}
	if rb == nil {
		return RankedMatch{}, fmt.Errorf("%w: %d", ErrUnknownReport, bID)
	}
	m := RankedMatch{Pair: record.MakePair(aID, bID)}
	if r.Blocking != nil && r.Blocking.PairScores != nil {
		m.BlockScore = r.Blocking.PairScores[m.Pair]
	} else if i, ok := r.pairIndex()[m.Pair]; ok {
		// Spill mode never builds PairScores; every candidate's block
		// score survives on its ranked match instead.
		m.BlockScore = r.Matches[i].BlockScore
	}
	m.Score = m.BlockScore
	if r.model != nil && r.profiles != nil {
		var ev features.PairEval
		ev.Reset(r.profiles.Extractor(), r.profiles.Get(ra), r.profiles.Get(rb))
		m.Score = r.model.ScorePair(&ev)
	}
	return m, nil
}

// pairIndex returns the lazy pair → Matches index, building it on first
// use. Matches hold every scored candidate, so the index answers the
// same lookups Blocking.PairScores would.
func (r *Resolution) pairIndex() map[record.Pair]int {
	r.pairOnce.Do(func() {
		r.pairIdx = make(map[record.Pair]int, len(r.Matches))
		for i, m := range r.Matches {
			r.pairIdx[m.Pair] = i
		}
	})
	return r.pairIdx
}

// AtCertainty returns the matches with Score >= theta — the query-time
// certainty slider of the uncertain-ER model. A NaN threshold matches
// nothing (NaN compares false with every score).
func (r *Resolution) AtCertainty(theta float64) []RankedMatch {
	if math.IsNaN(theta) {
		return nil
	}
	// Matches are sorted descending; binary search for the cut.
	lo := sort.Search(len(r.Matches), func(i int) bool {
		return r.Matches[i].Score < theta
	})
	return r.Matches[:lo]
}

// Pairs returns the ranked matches' pairs in rank order.
func (r *Resolution) Pairs() []record.Pair {
	out := make([]record.Pair, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.Pair
	}
	return out
}
