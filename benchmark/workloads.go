package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Sizes of the measured configuration; -persons scales them down for
// the smoke test.
const (
	randomPersons = 24000 // ≈48K reports, ≈166K candidate pairs
	trainPersons  = 1200
	spillPairs    = 32768 // forces ≈5 spill runs at randomPersons
	smokePersons  = 300   // bench_test.go's size; its corpora are pinned too
)

// workloadDef names one workload. An operation (op) is what op_ms times.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// random selects the six-community RandomSet corpus, resolved by
	// RunStream from a .yvst file; otherwise the ItalySet preset, resolved
	// by batch Run.
	random bool
	// rescore times ScoreCandidates over a frozen blocking result instead
	// of the whole pipeline.
	rescore bool
	// serve workloads time sessions of five requests, sessionsPerRound
	// per client between two checks; sweep sessions each start at a
	// certainty of their own.
	serve            bool
	sweep            bool
	sessionsPerRound int
	// ops is how many ops a run times (per client for the serve
	// workloads) at -seconds = nominalSeconds. The count is fixed, not
	// what fits in the time, so two runs do the same work.
	ops int
}

// nominalSeconds is the -seconds the op counts are sized for; another
// value scales them.
const nominalSeconds = 20

var workloads = []workloadDef{
	{Name: "resolve_italy", ops: 7,
		Why: "batch core.Run over ItalySet: dense MV pattern puts ~9/10 of the op in fpgrowth mining, so a mining change shows and a scoring change must not"},
	{Name: "stream_random", random: true, ops: 4,
		Why: "core.RunStream from a .yvst file with sharded mining/materialization and a spilling candidate set: same layers as resolve_italy, used differently"},
	{Name: "rescore_random", random: true, rescore: true, ops: 21,
		Why: "core.ScoreCandidates over a frozen blocking result: features+similarity+adtree do all the work, mfiblocks none, so a blocking change must show nothing"},
	{Name: "serve_hot", serve: true, sessionsPerRound: 50, ops: 1250,
		Why: "five-request sessions through ServeHTTP at four pre-warmed certainties: the cluster-cache hit path (linear Search/EntityOf, narrative, JSON, middleware)"},
	{Name: "serve_sweep", serve: true, sweep: true, sessionsPerRound: 4, ops: 60,
		Why: "each session first moves the slider to a new certainty: the cluster-cache miss path (union-find + buildEntity) and the clear-on-full cache's memory"},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is everything one set-up builds.
type env struct {
	wl  *workloadDef
	in  inputs
	dir string // scratch directory inside the checkout

	corp  *corpus
	truth eval.PairSet
	model *adtree.Model

	storePath string             // stream_random: the .yvst the op reads
	work      *record.Collection // rescore_random: preprocessed corpus
	blk       *mfiblocks.Result  // rescore_random: frozen blocking result
	res       *core.Resolution   // serve_*: the resolution served
	srv       *server.Server
	hot       []float64 // serve_*: the four pre-warmed certainties

	// ref is the output of the reference op set-up ends with: every timed
	// op is checked against it, and precision and recall are taken on it.
	ref []core.RankedMatch
}

// inputs says which inputs a run is made from.
type inputs struct {
	seed    int64 // BookID base and sessions
	persons int   // corpus size override; 0 = the measured sizes
}

// trainPersons is the size of the model's training split.
func (in inputs) trainPersons() int {
	if in.persons > 0 && in.persons < trainPersons {
		return in.persons
	}
	return trainPersons
}

// generate makes the workload's corpus as the generator gives it.
func generate(wl *workloadDef, in inputs) (*corpus, error) {
	if !wl.random {
		return italyCorpus(in.persons)
	}
	n := randomPersons
	if in.persons > 0 {
		n = in.persons
	}
	return randomCorpus(n)
}

// setUp builds the workload's inputs from the seed — corpus, model, and
// whatever the op depends on — and ends with the reference op: untimed,
// it grows the heap to its working size and gives the output every timed
// op has to repeat. For the serve workloads that is the resolve they
// serve from.
func setUp(wl *workloadDef, in inputs, dir string) (*env, error) {
	e := &env{wl: wl, in: in, dir: dir}
	var err error
	if e.corp, err = generate(wl, in); err != nil {
		return nil, err
	}
	if err := e.corp.prepare(in); err != nil {
		return nil, err
	}
	e.truth = e.corp.truth()
	if e.model, err = trainModel(in.trainPersons()); err != nil {
		return nil, err
	}

	switch {
	case wl.random && !wl.rescore:
		e.storePath = filepath.Join(dir, "corpus.yvst")
		if err := store.WriteAll(e.storePath, e.corp.records); err != nil {
			return nil, fmt.Errorf("write store: %w", err)
		}
	case wl.rescore:
		opts := e.options()
		if e.work, err = core.PreprocessWith(e.corp.coll, opts.Gazetteer); err != nil {
			return nil, err
		}
		if e.blk, err = mfiblocks.Run(opts.Blocking, e.work); err != nil {
			return nil, err
		}
	case wl.serve:
		if e.res, err = e.resolveOp(nil); err != nil {
			return nil, err
		}
		e.ref = e.res.Matches
		e.serve()
		return e, e.checkMatches(e.ref, e.ref, e.res.Report)
	}
	var report *telemetry.RunReport
	if e.ref, report, err = e.pipelineOp(); err != nil {
		return nil, err
	}
	return e, e.checkMatches(e.ref, e.ref, report)
}

// options is the batch pipeline configuration: what `yver -model` runs,
// pinned to the sandbox's two cores.
func (e *env) options() core.Options {
	opts := core.NewOptions(e.corp.gaz)
	opts.Gazetteer = e.corp.gaz
	opts.Model = e.model
	opts.Workers = procs
	opts.Metrics = registry
	opts.Blocking.Workers = procs
	opts.Blocking.Metrics = registry
	opts.Blocking.BlockCache = mfiblocks.DefaultBlockCache
	return opts
}

// streamOptions is the streaming configuration: sharded mining and
// materialization, and a spill cap small enough that the candidate set
// goes through several sorted runs on disk.
func (e *env) streamOptions() core.StreamOptions {
	so := core.StreamOptions{Options: e.options(), RetainRecords: true}
	so.Blocking.Shards = procs
	so.Blocking.MineShards = procs
	so.Blocking.SpillPairs = spillPairs
	if e.in.persons > 0 {
		so.Blocking.SpillPairs = max(64, spillPairs*e.in.persons/randomPersons)
	}
	so.Blocking.SpillDir = e.dir
	return so
}

// serve builds the server as yvserve does and warms the four fixed
// certainties: the match scores at rank quantiles 0.2/0.4/0.6/0.8.
func (e *env) serve() {
	e.srv = server.New(e.res, e.corp.coll)
	e.srv.MaxInflight = 256
	e.srv.RequestTimeout = 30 * time.Second
	e.srv.Metrics = registry
	for _, q := range []float64{0.2, 0.4, 0.6, 0.8} {
		c := e.scoreAtRank(q)
		e.hot = append(e.hot, c)
		e.res.Clusters(c)
	}
}

// scoreAtRank is the score of the match at the given share of the
// ranking (0 = best match), a realistic slider position.
func (e *env) scoreAtRank(q float64) float64 {
	ms := e.res.Matches
	if len(ms) == 0 {
		return 0
	}
	return ms[min(len(ms)-1, int(q*float64(len(ms))))].Score
}

// pipelineOp runs the workload's pipeline operation once.
func (e *env) pipelineOp() ([]core.RankedMatch, *telemetry.RunReport, error) {
	if e.wl.rescore {
		return core.ScoreCandidates(e.options(), e.work, e.blk), nil, nil
	}
	res, err := e.resolveOp(nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Matches, res.Report, nil
}

// resolveOp runs the corpus's pipeline end to end, records in → ranked
// matches out: batch Run, or RunStream from the .yvst file.
func (e *env) resolveOp(tr *tracing) (*core.Resolution, error) {
	if !e.wl.random {
		opts := e.options()
		tr.apply(&opts)
		return core.Run(opts, e.corp.coll)
	}
	src, err := store.OpenWindowReader(e.storePath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	opts := e.streamOptions()
	tr.apply(&opts.Options)
	return core.RunStream(opts, src)
}
