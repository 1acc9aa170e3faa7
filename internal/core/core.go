// Package core is the uncertain entity resolution pipeline of the paper:
// preprocessing (name and place equivalence classes), MFIBlocks soft
// blocking, pair feature extraction, ADTree scoring, and — the heart of
// the uncertain-ER model — a *ranked* resolution that is disambiguated
// only at query time, by a certainty threshold and a granularity choice
// (person vs. family), instead of a single crisp clustering.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/adtree"
	"repro/internal/features"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Options configures a pipeline run.
type Options struct {
	// Blocking parameterizes the MFIBlocks stage.
	Blocking mfiblocks.Config
	// Geo resolves place distances for feature extraction (and for
	// ExpertSim blocking if enabled there).
	Geo *gazetteer.Gazetteer
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
	// 0 means GOMAXPROCS, 1 runs one worker. Output is deterministic —
	// identical Matches order, candidate pairs, and discard counters —
	// for every worker count.
	Workers int
	// MemoSize does nothing: the scoring stage runs the similarity
	// kernels directly and no pair cache exists any more. The field
	// remains only because benchmark/staged.go passes it to the inert
	// features.NewPairMemo stub; ROADMAP 1(a) deletes both.
	MemoSize int
	// Metrics receives the run's registry view once the run finishes:
	// core_stage_seconds{stage}, the core_*_total outcome counters,
	// core_score_distribution and the mfiblocks_*_total counters, each
	// derived from a Report field. Nil falls back to telemetry.Default().
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
// blocking, SameSrc and Classify on. Classify requires a Model, so a
// caller that runs without one must clear it.
func NewOptions(geo *gazetteer.Gazetteer) Options {
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
	// Report is the run's telemetry breakdown: per-stage wall clock,
	// blocking iterations, scoring counters (Report.Scoring holds the
	// SameSrc and model drops), and the score distribution. The server
	// exposes it at /api/report; yver writes it with -report.
	Report *telemetry.RunReport
	// Trace is the run's tracer when Options.Trace was set: the full
	// span record behind Report.Spans, exportable as Chrome trace-event
	// JSON (the server's /api/trace, the CLIs' -trace-out). Nil when the
	// run was untraced.
	Trace *trace.Tracer

	// model and profiles carry the scoring machinery into the query
	// paths: ScorePair (and the server's /api/pair) re-score ad-hoc pairs
	// without redoing per-record extraction work. The scoring stage fills
	// profiles, aligned with Collection.Records, when a model is set; its
	// extractor profiles only the model's features.
	model    *adtree.Model
	profiles *features.ProfileCache

	// queryOnce/queryIdx belong to the query layer (entity.go, search.go):
	// the record order, merge forest, name index and per-record block
	// lists every query reads, built by the first one.
	queryOnce sync.Once
	queryIdx  *queryIndex
}

// wireDefaults threads the run-wide worker knob and progress hook into
// the blocking config unless the caller pinned its own.
func wireDefaults(opts *Options) {
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
// and deriving its registry metrics from it at the end. It is
// RunStream over a CollectionSource with the full records retained;
// candidate pairs stay in memory (Blocking.Pairs, PairScores) unless
// they outgrow the spill cap (Blocking.SpillPairs).
func Run(opts Options, coll *record.Collection) (*Resolution, error) {
	return RunStream(StreamOptions{Options: opts, RetainRecords: true}, NewCollectionSource(coll))
}

// resolve runs the pipeline's back half — scoring and ranking — over a
// finished blocking result, then assembles the Resolution and its
// report. Spilled and resident candidate sets take the same path from
// this point on.
func resolve(opts *Options, report *telemetry.RunReport, stages *stageRunner, work *record.Collection, blk *mfiblocks.Result) (*Resolution, error) {
	res := &Resolution{
		Blocking:   blk,
		Collection: work,
		model:      opts.Model,
		profiles:   features.NewProfileCache(scoringExtractor(opts)),
		Report:     report,
	}

	var st scoreResult
	if err := stages.run("scoring", func(sp *trace.Span) error {
		// A spilled run learns its distinct-pair total only at the merge.
		opts.Progress.Stage("scoring", int64(len(blk.Pairs)))
		var err error
		st, err = scoreCandidates(opts, work, candidatesOf(blk, sp), res.profiles, opts.workers(), sp)
		if err != nil {
			return fmt.Errorf("core: scoring: %w", err)
		}
		res.Matches = st.matches
		return nil
	}); err != nil {
		return nil, err
	}

	if err := stages.run("rank", func(*trace.Span) error {
		opts.Progress.Stage("rank", int64(len(res.Matches)))
		sortMatches(res.Matches)
		opts.Progress.Add(int64(len(res.Matches)))
		return nil
	}); err != nil {
		return nil, err
	}

	report.Blocking = blockingReport(blk, st.candidates)
	report.Scoring = scoringReport(&st, res.profiles.Extractor())
	stages.root.Attr("matches", int64(len(res.Matches))).End()
	if opts.Trace != nil {
		res.Trace = opts.Trace
		report.Spans = opts.Trace.Tree(trace.Full)
	}
	if err := publish(opts.metrics(), report, st.scores); err != nil {
		return nil, fmt.Errorf("core: publish: %w", err)
	}
	return res, nil
}

// blockingReport converts the blocking result into its report form.
// pairs is the distinct candidate count the scoring stage read: a
// spilled run learns it only at the merge. The iterations are copied:
// the report is a value of its own, which a reader may edit in place
// (the report golden zeroes its durations) without touching the result's.
func blockingReport(blk *mfiblocks.Result, pairs int) *telemetry.BlockingReport {
	br := &telemetry.BlockingReport{Iterations: slices.Clone(blk.Iterations), Pairs: pairs}
	if blk.Spill != nil {
		// Stats stay valid after the scoring merge closed the runs.
		ss := blk.Spill.Stats()
		br.SpillRuns, br.SpilledEntries = ss.Runs, ss.SpilledEntries
	}
	return br
}

// scoringReport converts the scoring stage's outcome into its report
// form.
func scoringReport(st *scoreResult, ex *features.Extractor) *telemetry.ScoringReport {
	sr := &telemetry.ScoringReport{
		SameSrcDropped:    st.sameSrc,
		ModelDropped:      st.byModel,
		Matches:           len(st.matches),
		FeaturesEvaluated: st.features,
		InternedStrings:   ex.InternedStrings(),
	}
	if st.scores != nil {
		snap := st.scores.Snapshot()
		sr.Scores = &snap
	}
	return sr
}

// publish writes the run's registry view, each family derived from the
// finished report — the one place core writes the registry. scores is
// the histogram the report's score snapshot was taken from. A registry
// whose core_score_distribution series has other bounds is an error,
// and then publish writes nothing.
func publish(reg *telemetry.Registry, report *telemetry.RunReport, scores *telemetry.Histogram) error {
	if err := reg.Histogram("core_score_distribution", telemetry.ScoreBuckets).Merge(scores); err != nil {
		return err
	}
	for _, s := range report.Stages {
		reg.Timer("core_stage_seconds", telemetry.L("stage", s.Name)).Observe(time.Duration(s.DurationNS))
	}
	br, sr := report.Blocking, report.Scoring
	reg.Counter("core_runs_total").Inc()
	reg.Counter("core_candidate_pairs_total").Add(int64(br.Pairs))
	reg.Counter("core_matches_total").Add(int64(sr.Matches))
	reg.Counter("core_samesrc_dropped_total").Add(int64(sr.SameSrcDropped))
	reg.Counter("core_model_dropped_total").Add(int64(sr.ModelDropped))

	var mfis, blocks, csPruned, ngPruned int
	for _, it := range br.Iterations {
		mfis += it.MFIs
		blocks += it.Blocks
		csPruned += it.CSPruned
		ngPruned += it.NGPruned
	}
	reg.Counter("mfiblocks_iterations_total").Add(int64(len(br.Iterations)))
	reg.Counter("mfiblocks_mfis_total").Add(int64(mfis))
	reg.Counter("mfiblocks_blocks_total").Add(int64(blocks))
	reg.Counter("mfiblocks_pairs_total").Add(int64(br.Pairs))
	reg.Counter("mfiblocks_cs_pruned_total").Add(int64(csPruned))
	reg.Counter("mfiblocks_ng_pruned_total").Add(int64(ngPruned))
	return nil
}

// sortMatches ranks matches by descending score, breaking ties by pair —
// a total order over distinct pairs, so the ranking is independent of the
// pre-sort order the scoring stage produced.
func sortMatches(ms []RankedMatch) {
	slices.SortFunc(ms, func(x, y RankedMatch) int {
		if c := cmp.Compare(y.Score, x.Score); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Pair.A, y.Pair.A); c != 0 {
			return c
		}
		return cmp.Compare(x.Pair.B, y.Pair.B)
	})
}

// scoringExtractor returns the extractor the scoring stage profiles
// records with: its profiles carry the inputs of exactly the features the
// model tests, and it panics if asked for any other. Without a model it
// profiles nothing, and nothing asks.
func scoringExtractor(opts *Options) *features.Extractor {
	var used []int
	if opts.Model != nil {
		used = opts.Model.UsedFeatures()
	}
	return features.NewExtractorFor(opts.Geo, used)
}

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
// proposed the pair). The block score is the best score of a kept block
// holding both reports, so it is the same whether the candidates were
// spilled or not and whether or not SameSrc or the classifier dropped
// the pair. It is safe for concurrent use.
func (r *Resolution) ScorePair(aID, bID int64) (RankedMatch, error) {
	if aID == bID {
		return RankedMatch{}, fmt.Errorf("%w: report %d", ErrSelfPair, aID)
	}
	ia, ib := r.Collection.Index(aID), r.Collection.Index(bID)
	if ia < 0 {
		return RankedMatch{}, fmt.Errorf("%w: %d", ErrUnknownReport, aID)
	}
	if ib < 0 {
		return RankedMatch{}, fmt.Errorf("%w: %d", ErrUnknownReport, bID)
	}
	m := RankedMatch{Pair: record.MakePair(aID, bID)}
	if r.Blocking != nil {
		m.BlockScore = r.queryIndex().blockScore(r.Blocking.Blocks, ia, ib)
	}
	m.Score = m.BlockScore
	if r.model != nil && r.profiles != nil {
		var ev features.PairEval
		ev.Reset(r.profiles.Extractor(), r.profiles.Get(ia), r.profiles.Get(ib))
		m.Score = r.model.ScorePair(&ev)
	}
	return m, nil
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
