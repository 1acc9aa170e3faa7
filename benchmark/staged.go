package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/fpgrowth"
	"repro/internal/mfiblocks"
	"repro/internal/narrative"
	"repro/internal/record"
	"repro/internal/spill"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

// tracing is what a traced pipeline op switches on: the program's span
// tree, its flight recorder, and its progress hooks. A nil *tracing
// leaves the op untraced.
type tracing struct {
	tracer   *trace.Tracer
	progress *trace.Progress
}

func startTracing() *tracing {
	t := &tracing{tracer: trace.New(), progress: &trace.Progress{W: io.Discard}}
	t.tracer.StartSampler(0)
	t.progress.Start()
	return t
}

func (t *tracing) stop() {
	t.progress.Stop()
	t.tracer.Sampler().Stop()
}

func (t *tracing) apply(o *core.Options) {
	if t != nil {
		o.Trace, o.Progress = t.tracer, t.progress
	}
}

// stager records the staged run: one benchmark-side span per call into a
// layer, all under one root, and the layer metrics read off them.
type stager struct {
	tracer  *trace.Tracer
	root    *trace.Span
	metrics map[string]float64
	notes   []string
}

// span times fn inside a child span of the staged root and returns the
// wall time in milliseconds. op tags the span with the operation it
// belongs to, the staged run's stand-in for a trace id.
func (s *stager) span(name string, op int, fn func(sp *trace.Span)) float64 {
	sp := s.root.Child(name).Attr("op", int64(op))
	t0 := time.Now()
	fn(sp)
	d := time.Since(t0)
	sp.End()
	return ms(d)
}

func (s *stager) notef(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// stagedRun replays the workload once in pipeline order, every call into
// a layer's public functions inside a benchmark-side span, and reports
// the per-layer metrics. It runs the same sequence for every workload —
// the workload picks the corpus, the pipeline (batch or streaming) and
// which spans make up its op — so every layer metric is measured, on
// this workload's inputs, whichever workload is asked for.
func stagedRun(cfg runConfig) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tr := trace.New()
	st := &stager{tracer: tr, root: tr.StartSpan(nil, "staged:"+cfg.wl.Name), metrics: map[string]float64{}}
	e := &env{wl: cfg.wl, in: cfg.in, dir: dir}
	var s opSamples
	if err := st.pipeline(e, &s, cfg); err != nil {
		return nil, err
	}
	if err := st.queries(e, &s); err != nil {
		return nil, err
	}
	st.root.End()

	tree := tr.Tree(trace.Full)
	base := filepath.Join(cfg.outDir, cfg.wl.Name)
	if err := tr.WriteChromeFile(base + ".trace.json"); err != nil {
		return nil, err
	}
	r := s.result(cfg)
	r.Notes = st.notes
	for _, d := range perLayer {
		v, ok := st.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("staged run did not measure %s", d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	layers, err := json.MarshalIndent(struct {
		*runResult
		Spans []spanTotal `json:"spans"`
	}{r, selfTimes(tree.Roots)}, "", " ")
	if err != nil {
		return nil, err
	}
	return r, os.WriteFile(base+".layers.json", layers, 0o644)
}

// pipeline stages records-in → ranked-matches-out: dataset, store,
// record, fpgrowth, mfiblocks, spill, features, adtree, core, eval,
// telemetry.
func (st *stager) pipeline(e *env, s *opSamples, cfg runConfig) error {
	m := st.metrics
	var err error

	// dataset
	m["dataset.generate_ms"] = st.span("dataset.generate", 0, func(*trace.Span) { e.corp, err = generate(e.wl, e.in) })
	if err != nil {
		return err
	}
	if err := e.corp.prepare(e.in); err != nil {
		return err
	}
	e.truth = e.corp.truth()
	n := e.corp.coll.Len()
	m["dataset.records"] = float64(n)

	// adtree: train as set-up does, with adtree.Train in its own span.
	g, tags, err := trainingSet(e.in.trainPersons())
	if err != nil {
		return err
	}
	insts, _, err := core.Instances(tags, g.Collection, g.Gaz, core.OmitMaybe)
	if err != nil {
		return err
	}
	m["adtree.train_ms"] = st.span("adtree.train", 0, func(*trace.Span) {
		e.model, err = adtree.Train(adtree.NewTrainConfig(), features.Defs(), insts)
	})
	if err != nil {
		return err
	}

	// store
	e.storePath = filepath.Join(e.dir, "corpus.yvst")
	m["store.write_ms"] = st.span("store.write", 0, func(*trace.Span) {
		err = store.WriteAll(e.storePath, e.corp.records)
	})
	if err != nil {
		return err
	}
	if fi, err := os.Stat(e.storePath); err == nil {
		m["store.bytes_per_record"] = float64(fi.Size()) / float64(n)
	}
	m["store.scan_ms"] = st.span("store.scan", 1, func(*trace.Span) {
		var src *store.WindowReader
		if src, err = store.OpenWindowReader(e.storePath); err != nil {
			return
		}
		defer src.Close()
		for err == nil {
			_, err = src.NextRecord()
		}
		if err == io.EOF {
			err = nil
		}
	})
	if err != nil {
		return err
	}

	// core.preprocess, record.encode
	opts := e.options()
	blocking := opts.Blocking
	if e.wl.random {
		blocking = e.streamOptions().Blocking
	}
	m["core.preprocess_ms"] = st.span("core.preprocess", 1, func(*trace.Span) {
		e.work, err = core.PreprocessWith(e.corp.coll, opts.Gazetteer)
	})
	if err != nil {
		return err
	}
	var encoded *mfiblocks.Corpus
	m["record.encode_ms"] = st.span("record.encode", 1, func(*trace.Span) {
		encoded = mfiblocks.NewCorpus(e.work)
	})
	m["record.dict_items"] = float64(encoded.Dict.Len())

	// fpgrowth, called as mfiblocks calls it at the first minsup level.
	var miner *fpgrowth.Miner
	var mfis []fpgrowth.Itemset
	m["fpgrowth.mine_top_ms"] = st.span("fpgrowth.mine_top", 0, func(*trace.Span) {
		miner = fpgrowth.NewMinerTxns(encoded.Txns)
		miner.Workers = procs
		miner.Prune(encoded.Dict.MostFrequent(blocking.PruneFraction))
		mfis = miner.MineMaximal(blocking.MaxMinSup, nil)
	})
	nodes, _ := miner.TreeStats(blocking.MaxMinSup, nil)
	m["fpgrowth.tree_nodes"] = float64(nodes)
	var index *fpgrowth.Index
	m["fpgrowth.index_ms"] = st.span("fpgrowth.index", 0, func(*trace.Span) { index = miner.BuildIndex() })
	m["fpgrowth.support_ms"] = st.span("fpgrowth.support", 0, func(*trace.Span) {
		for _, it := range mfis {
			index.SupportSet(it.Items)
		}
	})

	// mfiblocks: the program's iteration/tree_build/mine/build_blocks
	// spans land under this span through Config.Trace.
	var blk *mfiblocks.Result
	runMS := st.span("mfiblocks.run", 1, func(sp *trace.Span) {
		blocking.Trace = sp
		if e.wl.random {
			blk, err = mfiblocks.RunCorpus(blocking, encoded)
		} else {
			blk, err = mfiblocks.Run(blocking, e.work)
		}
	})
	if err != nil {
		return err
	}
	m["mfiblocks.run_ms"] = runMS
	// The minsup loop stops early once every record is covered; a level
	// it never reached took no time.
	for _, minsup := range []int{5, 4, 3, 2} {
		m[fmt.Sprintf("mfiblocks.iter%d_ms", minsup)] = 0
	}
	for _, it := range blk.Iterations {
		m[fmt.Sprintf("mfiblocks.iter%d_ms", it.MinSup)] = ms(it.Elapsed)
		m["mfiblocks.cs_pruned"] += float64(it.CSPruned)
		m["mfiblocks.ng_pruned"] += float64(it.NGPruned)
	}
	m["mfiblocks.blocks"] = float64(len(blk.Blocks))
	m["mfiblocks.cache_hit_ratio"] = share(float64(blk.Cache.Hits), float64(blk.Cache.Hits+blk.Cache.Misses))
	inner := totalsUnder(st.tracer.Tree(trace.Full).Roots, "mfiblocks.run")
	m["fpgrowth.tree_build_ms"] = inner["tree_build"].ms
	m["fpgrowth.mine_ms"] = inner["mine"].ms
	m["fpgrowth.mfis"] = float64(inner["mine"].attrs["mfis"])
	m["mfiblocks.build_blocks_ms"] = inner["build_blocks"].ms
	m["mfiblocks.self_ms"] = runMS - inner["tree_build"].ms - inner["mine"].ms - inner["build_blocks"].ms

	drainMS := 0.0
	if blk.Spill != nil {
		// The streaming op's scorer reads the candidates back through the
		// spill's merge; the staged run drains it into the in-memory form
		// ScoreCandidates takes.
		blk.PairScores = map[record.Pair]float64{}
		drainMS = st.span("spill.drain", 1, func(*trace.Span) { err = drain(blk.Spill, blk) })
		if err != nil {
			return err
		}
	}
	e.blk = blk
	m["mfiblocks.candidates"] = float64(len(blk.Pairs))
	candidates := eval.Evaluate(blk.Pairs, e.truth)
	m["mfiblocks.pairs_completeness"] = candidates.Recall
	m["mfiblocks.pairs_quality"] = candidates.Precision
	m["mfiblocks.reduction_ratio"] = eval.ReductionRatio(len(blk.Pairs), n)

	bench, err := mfiblocks.NewBlockBench(blocking, e.work, blocking.MaxMinSup)
	if err != nil {
		return err
	}
	m["mfiblocks.build_cold_ms"] = st.span("mfiblocks.build_cold", 0, func(*trace.Span) { bench.BuildBlocks(false) })
	bench.BuildBlocks(true)
	m["mfiblocks.build_warm_ms"] = st.span("mfiblocks.build_warm", 0, func(*trace.Span) { bench.BuildBlocks(true) })

	// spill: the candidates replayed through a fresh accumulator.
	replay := spill.NewPairs(e.streamOptions().Blocking.SpillPairs, e.dir)
	m["spill.add_ms"] = st.span("spill.add", 0, func(*trace.Span) {
		for _, p := range blk.Pairs {
			if _, err = replay.Add(p, blk.PairScores[p]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["spill.merge_ms"] = st.span("spill.merge", 0, func(*trace.Span) { err = drain(replay, nil) })
	if err != nil {
		return err
	}
	m["spill.runs"] = float64(replay.Stats().Runs)
	m["spill.bytes"] = float64(replay.Stats().SpilledBytes)

	// features and adtree, pair by pair on one goroutine.
	memo := features.NewExtractor(opts.Geo)
	memo.Memo = features.NewPairMemo(opts.MemoSize)
	cache := features.NewProfileCache(memo)
	var profs []*features.Profile
	m["features.profile_build_ms"] = st.span("features.profile_build", 0, func(*trace.Span) {
		profs = cache.Build(e.work, procs)
	})
	type idx struct{ a, b int }
	pairs := make([]idx, len(blk.Pairs))
	for i, p := range blk.Pairs {
		pairs[i] = idx{e.work.Index(p.A), e.work.Index(p.B)}
	}
	const keep = 20000 // vectors kept for the scoring loop
	vectors := make([]features.Vector, 0, keep)
	m["features.extract_ns"] = 1e6 / float64(len(pairs)) * st.span("features.extract", 0, func(*trace.Span) {
		for i, p := range pairs {
			if v := memo.ExtractProfiled(profs[p.a], profs[p.b]); i < keep {
				vectors = append(vectors, v)
			}
		}
	})
	ms1 := memo.Memo.Stats()
	m["features.memo_hit_ratio"] = share(float64(ms1.Hits), float64(ms1.Hits+ms1.Misses))
	plain := features.NewExtractor(opts.Geo)
	plainProfs := features.NewProfileCache(plain).Build(e.work, procs)
	m["features.extract_nomemo_ns"] = 1e6 / float64(len(pairs)) * st.span("features.extract_nomemo", 0, func(*trace.Span) {
		for _, p := range pairs {
			plain.ExtractProfiled(plainProfs[p.a], plainProfs[p.b])
		}
	})
	m["adtree.score_ns"] = 1e6 / float64(len(vectors)) * st.span("adtree.score", 0, func(*trace.Span) {
		for _, v := range vectors {
			e.model.Score(v)
		}
	})

	// core.ScoreCandidates, then the gold-standard evaluation of its output.
	var scored []core.RankedMatch
	m["core.score_candidates_ms"] = st.span("core.score_candidates", 1, func(*trace.Span) {
		scored = core.ScoreCandidates(opts, e.work, blk)
	})
	sameSrc := 0
	for _, p := range pairs {
		if a, b := e.work.Records[p.a], e.work.Records[p.b]; a.Source != "" && a.Source == b.Source {
			sameSrc++
		}
	}
	m["adtree.drop_ratio"] = share(float64(len(pairs)-sameSrc-len(scored)), float64(len(pairs)))
	scoredPairs := make([]record.Pair, len(scored))
	for i, sm := range scored {
		scoredPairs[i] = sm.Pair
	}
	m["eval.evaluate_ms"] = st.span("eval.evaluate", 0, func(*trace.Span) { eval.Evaluate(scoredPairs, e.truth) })

	// The pipeline end to end, untraced then traced: the stage split of
	// the report, the tracing overhead, and the attribution check.
	pairsOfOps := max(1, cfg.ops)
	var untraced, traced []float64
	stages := map[string][]float64{}
	var last *tracing
	for i := 0; i < 2*pairsOfOps; i++ {
		var t *tracing
		if i%2 == 1 {
			t = startTracing()
			last = t
		}
		t0 := time.Now()
		res, err := e.resolveOp(t)
		wall := time.Since(t0)
		if t != nil {
			t.stop()
		}
		if err != nil {
			return err
		}
		s.add(wall, e.checkMatches(res.Matches, scored, res.Report))
		if t != nil {
			traced = append(traced, ms(wall))
			continue
		}
		untraced = append(untraced, ms(wall))
		for _, sr := range res.Report.Stages {
			name := sr.Name
			if name == "preprocess" {
				name = "ingest"
			}
			stages[name] = append(stages[name], float64(sr.DurationNS)/1e6)
		}
		e.res = res
	}
	for _, name := range []string{"ingest", "blocking", "scoring", "rank"} {
		m["core.stage_"+name+"_ms"] = median(stages[name])
	}
	m["telemetry.trace_overhead_ratio"] = median(traced)/median(untraced) - 1
	if err := last.tracer.WriteChromeFile(filepath.Join(cfg.outDir, e.wl.Name+".op.trace.json")); err != nil {
		return err
	}
	stageSum := 0.0
	for _, root := range last.tracer.Tree(trace.Full).Roots {
		for _, stage := range root.Children {
			stageSum += float64(stage.DurationNS) / 1e6
		}
	}
	st.notef("resolve op: untraced median %.1f ms over %d, traced %.1f ms; Σ stage spans of the traced op ÷ untraced op = %.3f",
		median(untraced), len(untraced), median(traced), stageSum/median(untraced))

	path := m["core.preprocess_ms"] + runMS + m["core.score_candidates_ms"]
	if e.wl.random {
		path += m["store.scan_ms"] + m["record.encode_ms"] + drainMS
	}
	switch {
	case e.wl.rescore:
		var own []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			got := core.ScoreCandidates(opts, e.work, blk)
			wall := time.Since(t0)
			s.add(wall, e.checkMatches(got, scored, nil))
			own = append(own, ms(wall))
		}
		st.notef("op path (core.score_candidates span) %.1f ms ÷ untraced op_ms %.1f = %.3f",
			m["core.score_candidates_ms"], median(own), m["core.score_candidates_ms"]/median(own))
	case !e.wl.serve:
		st.notef("op path (Σ staged spans with op=1) %.1f ms ÷ untraced op_ms %.1f = %.3f", path, median(untraced), path/median(untraced))
	}
	return nil
}

// queries stages ranked-matches-in → answers-out on the resolution the
// last untraced op left: core's query functions, narrative, server.
func (st *stager) queries(e *env, s *opSamples) error {
	m := st.metrics
	e.serve()
	plan := newPlanner(e)
	// A search scans every entity, so the larger corpus gets fewer
	// sessions; so does the sweep, whose every session re-clusters.
	count := 200 * 9000 / max(9000, e.corp.coll.Len())
	if e.wl.sweep {
		count = max(8, count/5)
	}
	sessions := plan.next(count)
	warm := e.hot[1]

	// core: a cold certainty per call for Clusters, the warm one for the rest.
	var cold, search, entityOf, scorePair, narr []float64
	for i := 0; i < 5; i++ {
		theta := e.scoreAtRank(0.1+0.2*float64(i)) + 1e-7
		cold = append(cold, st.span("core.cluster_cold", 0, func(*trace.Span) {
			m["core.cluster_entities"] = float64(len(e.res.Clusters(theta)))
		}))
	}
	nb := &narrative.Builder{Coll: e.corp.coll}
	for _, q := range sessions {
		first := ""
		if r := e.res.Collection.ByID(q.book); r != nil {
			first, _ = r.First(record.FirstName)
		}
		search = append(search, timed(func() {
			e.res.Search(core.Query{First: first, Last: q.last, Certainty: warm})
		}))
		var ent *core.Entity
		entityOf = append(entityOf, 1e3*timed(func() { ent, _ = e.res.EntityOf(q.book, warm) }))
		scorePair = append(scorePair, 1e3*timed(func() { e.res.ScorePair(q.book, q.other) }))
		if ent != nil {
			narr = append(narr, 1e3*timed(func() { nb.Build(q.last, ent.Reports) }))
		}
	}
	m["core.cluster_cold_ms"] = median(cold)
	m["core.search_ms"] = median(search)
	m["core.entity_of_us"] = median(entityOf)
	m["core.score_pair_us"] = median(scorePair)
	m["narrative.build_us"] = median(narr)

	// server: the workload's sessions, in turn untraced and with a span
	// per request, so both halves see the same mix of slider positions.
	var untraced, total, bytes []float64
	var route [5][]float64
	for i, q := range plan.next(2 * len(sessions)) {
		if i%2 == 0 {
			r := e.runSession(q)
			s.add(r.wall, e.checkSession(q, &r))
			untraced = append(untraced, ms(r.wall))
			continue
		}
		var r sessionResult
		sum, size := 0.0, 0
		for j, u := range q.urls {
			d := st.span("server."+routeName(j), 2+i, func(*trace.Span) { r.status[j], r.body[j] = e.request(u) })
			route[j] = append(route[j], d)
			sum += d
			size += len(r.body[j])
		}
		s.add(time.Duration(sum*float64(time.Millisecond)), e.checkSession(q, &r))
		total = append(total, sum)
		bytes = append(bytes, float64(size))
	}
	for j := range routes {
		m["server."+routeName(j)+"_ms"] = median(route[j])
	}
	m["server.session_p99_ms"] = quantile(total, 0.99)
	m["server.bytes_per_session"] = median(bytes)
	m["server.overhead_us"] = 1e3*m["server.pair_ms"] - m["core.score_pair_us"]
	if e.wl.serve {
		st.notef("op path (Σ of a session's five route spans, median) %.3f ms ÷ untraced op_ms %.3f = %.3f",
			median(total), median(untraced), median(total)/median(untraced))
	}
	return e.checkServerCounters()
}

// drain reads a spill's merged stream to its end and closes it; with
// into set it collects the pairs and scores there.
func drain(sp *spill.Pairs, into *mfiblocks.Result) error {
	it, err := sp.Iter()
	if err != nil {
		return err
	}
	for {
		p, score, err := it.Next()
		if err == io.EOF {
			return sp.Close()
		}
		if err != nil {
			return err
		}
		if into != nil {
			into.Pairs = append(into.Pairs, p)
			into.PairScores[p] = score
		}
	}
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanTotal is one span name's share of the staged run.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MS     float64 `json:"total_ms"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes reduces a span tree by name. A span's self time is its
// duration minus the part of it its children cover (children that run
// in parallel cover their union once).
func selfTimes(roots []*trace.Node) []spanTotal {
	byName := map[string]*spanTotal{}
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		t := byName[n.Name]
		if t == nil {
			t = &spanTotal{Name: n.Name}
			byName[n.Name] = t
		}
		t.Count++
		t.MS += float64(n.DurationNS) / 1e6
		t.SelfMS += float64(n.DurationNS-covered(n)) / 1e6
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of n's child intervals, clipped to n.
func covered(n *trace.Node) int64 {
	kids := append([]*trace.Node(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	end := n.StartNS + n.DurationNS
	var sum int64
	at := n.StartNS
	for _, c := range kids {
		lo, hi := max(c.StartNS, at), min(c.StartNS+c.DurationNS, end)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// nameTotal sums the spans of one name: their durations and attributes.
type nameTotal struct {
	ms    float64
	attrs map[string]int64
}

// totalsUnder reduces by name the spans below the first span called
// under — the program's own spans a staged call parented there.
func totalsUnder(roots []*trace.Node, under string) map[string]nameTotal {
	out := map[string]nameTotal{}
	var sum func(n *trace.Node)
	sum = func(n *trace.Node) {
		for _, c := range n.Children {
			t := out[c.Name]
			if t.attrs == nil {
				t.attrs = map[string]int64{}
			}
			t.ms += float64(c.DurationNS) / 1e6
			for k, v := range c.Attrs {
				t.attrs[k] += v
			}
			out[c.Name] = t
			sum(c)
		}
	}
	var find func(ns []*trace.Node) bool
	find = func(ns []*trace.Node) bool {
		for _, n := range ns {
			if n.Name == under {
				sum(n)
				return true
			}
			if find(n.Children) {
				return true
			}
		}
		return false
	}
	find(roots)
	return out
}
