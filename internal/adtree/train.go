package adtree

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/features"
)

// Instance is one labelled training example.
type Instance struct {
	X features.Vector
	// Match is the binary label (+1 match / -1 non-match).
	Match bool
}

// TrainConfig controls boosting.
type TrainConfig struct {
	// Rounds is the number of boosting rounds (splitters added). The
	// paper's models use about ten.
	Rounds int
}

// NewTrainConfig returns the defaults used across the experiments.
func NewTrainConfig() TrainConfig {
	return TrainConfig{Rounds: 10}
}

// maxThresholds caps the candidate split points per numeric feature;
// candidates are value midpoints, quantile-thinned beyond the cap.
const maxThresholds = 48

// Train boosts an alternating decision tree over the instances.
func Train(cfg TrainConfig, defs []features.Def, insts []Instance) (*Model, error) {
	t, err := newTrainer(cfg, defs, insts)
	if err != nil {
		return nil, err
	}
	return t.train(), nil
}

// trainer carries boosting state.
type trainer struct {
	cfg   TrainConfig
	defs  []features.Def
	insts []Instance
	// workers is how many goroutines a round's split scans run on:
	// GOMAXPROCS. The model does not depend on it.
	workers int

	weights   []float64
	root      *PredictionNode
	nodes     []*PredictionNode // all prediction nodes (preconditions)
	reach     [][]int           // per node: instance indices reaching it, ascending
	member    [][]uint64        // per node: bit i set when instance i reaches it
	completed int

	candidates [][]Condition // per feature
	cols       []column      // per feature
	jobs       []scanJob     // this round's (node, feature) scans
	scratch    []*scanScratch
}

// column is one feature over every instance, laid out once per Train
// so that a scan reads flat arrays instead of the instances' vectors.
type column struct {
	present []uint64 // bit i: instance i has the feature
	// order holds a numeric feature's present instances sorted by
	// (value, instance index), and sorted their values in that order:
	// the one order in which every numeric sum adds its weights.
	order  []int32
	sorted []float64
	// level is a categorical instance's bucket: the index of its value
	// among the distinct candidate levels, or the shared last bucket for
	// a value no candidate tests. condLevel is each candidate's bucket.
	level     []int32
	condLevel []int32
	buckets   int
}

// scanJob is one (node, feature) split search and, once scanned, its
// first minimum: cand indexes the feature's candidates, -1 for none.
type scanJob struct {
	node, feature int
	wRest         float64 // mass outside the node
	z             float64
	cand          int
}

// offer keeps candidate c if its Z is below the job's minimum so far.
func (j *scanJob) offer(c int, z float64) {
	if z < j.z {
		j.z, j.cand = z, c
	}
}

// scanScratch is one worker's reused per-level sums.
type scanScratch struct {
	sums []wpair
}

type wpair struct{ wp, wn float64 }

func newTrainer(cfg TrainConfig, defs []features.Def, insts []Instance) (*trainer, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("adtree: no training instances")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("adtree: Rounds must be >= 1, got %d", cfg.Rounds)
	}
	return &trainer{cfg: cfg, defs: defs, insts: insts, workers: runtime.GOMAXPROCS(0)}, nil
}

func (t *trainer) train() *Model {
	t.init()
	for round := 1; round <= t.cfg.Rounds; round++ {
		if !t.boostOnce(round) {
			break // no splittable mass left
		}
	}
	return &Model{Root: t.root, Defs: t.defs, Rounds: t.completed}
}

func (t *trainer) init() {
	n := len(t.insts)
	var wp, wn float64
	for _, inst := range t.insts {
		if inst.Match {
			wp++
		} else {
			wn++
		}
	}
	t.root = &PredictionNode{Value: halfLogRatio(wp, wn)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	t.nodes = []*PredictionNode{t.root}
	t.reach = [][]int{all}
	t.member = [][]uint64{bitsetOf(all, n)}

	// Reweight by the root prediction.
	t.weights = make([]float64, n)
	for i, inst := range t.insts {
		t.weights[i] = math.Exp(-sign(inst.Match) * t.root.Value)
	}

	t.buildColumns()
}

// bitsetOf returns the set of the indices in list, for n instances.
func bitsetOf(list []int, n int) []uint64 {
	b := make([]uint64, (n+63)/64)
	for _, i := range list {
		b[i>>6] |= 1 << (uint(i) & 63)
	}
	return b
}

// has reports whether bit i of b is set.
func has(b []uint64, i int) bool {
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// buildColumns lays out every feature as a column and enumerates its
// base conditions: equality with each level for a categorical (the
// candidates repeating a level share one bucket), and midpoints of the
// observed values (quantile-thinned) for a numeric, read off its
// presorted order.
func (t *trainer) buildColumns() {
	n := len(t.insts)
	t.candidates = make([][]Condition, len(t.defs))
	t.cols = make([]column, len(t.defs))
	recs := make([]valueIndex, 0, n)
	for _, d := range t.defs {
		f := d.ID
		col := &t.cols[f]
		col.present = make([]uint64, (n+63)/64)
		recs = recs[:0]
		for i, inst := range t.insts {
			if f < len(inst.X) && inst.X[f].Present {
				col.present[i>>6] |= 1 << (uint(i) & 63)
				recs = append(recs, valueIndex{inst.X[f].Num, int32(i)})
			}
		}
		if d.Kind == features.Categorical {
			t.buildCategorical(f, d.Levels, col, recs)
		} else {
			t.buildNumeric(f, col, recs)
		}
	}
}

// valueIndex is a present instance and its numeric value.
type valueIndex struct {
	v float64
	i int32
}

func (t *trainer) buildCategorical(f int, levels []string, col *column, present []valueIndex) {
	bucket := make(map[string]int32, len(levels))
	for _, lv := range levels {
		t.candidates[f] = append(t.candidates[f], Condition{Feature: f, Level: lv})
		b, ok := bucket[lv]
		if !ok {
			b = int32(len(bucket))
			bucket[lv] = b
		}
		col.condLevel = append(col.condLevel, b)
	}
	col.buckets = len(bucket) + 1
	col.level = make([]int32, len(t.insts))
	for _, r := range present {
		b, ok := bucket[t.insts[r.i].X[f].Cat]
		if !ok {
			b = int32(len(bucket))
		}
		col.level[r.i] = b
	}
}

// buildNumeric sorts the present instances by (value, index) into the
// column and takes the candidate thresholds from that order.
func (t *trainer) buildNumeric(f int, col *column, recs []valueIndex) {
	slices.SortFunc(recs, func(a, b valueIndex) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	col.order = make([]int32, len(recs))
	col.sorted = make([]float64, len(recs))
	var mids []float64
	for k, r := range recs {
		col.order[k], col.sorted[k] = r.i, r.v
		if k > 0 && r.v != recs[k-1].v {
			mids = append(mids, (r.v+recs[k-1].v)/2)
		}
	}
	if len(mids) > maxThresholds {
		thinned := make([]float64, 0, maxThresholds)
		for k := 0; k < maxThresholds; k++ {
			thinned = append(thinned, mids[k*len(mids)/maxThresholds])
		}
		mids = thinned
	}
	for _, m := range mids {
		t.candidates[f] = append(t.candidates[f], Condition{Feature: f, Numeric: true, Threshold: m})
	}
}

// boostOnce adds the rule minimizing the Z criterion. It reports false
// when no candidate improves on the trivial rule.
//
// Every (node, feature) scan is a job that keeps its own first minimum;
// the jobs run on the worker pool and are then reduced in (node,
// feature) order with a strict <, which picks the rule one sequential
// loop over nodes and features would.
func (t *trainer) boostOnce(round int) bool {
	totalW := 0.0
	for _, w := range t.weights {
		totalW += w
	}

	t.jobs = t.jobs[:0]
	for ni, reach := range t.reach {
		if len(reach) == 0 {
			continue
		}
		var wNode float64
		for _, i := range reach {
			wNode += t.weights[i]
		}
		for f, conds := range t.candidates {
			if len(conds) > 0 {
				t.jobs = append(t.jobs, scanJob{node: ni, feature: f, wRest: totalW - wNode})
			}
		}
	}
	t.runScans()

	best, bestZ := -1, math.Inf(1)
	for j := range t.jobs {
		if job := &t.jobs[j]; job.cand >= 0 && job.z < bestZ {
			best, bestZ = j, job.z
		}
	}
	if best < 0 {
		return false
	}
	job := t.jobs[best]
	t.addRule(round, job.node, t.candidates[job.feature][job.cand])
	t.completed = round
	return true
}

// runScans scans every job, on up to t.workers goroutines sharing a job
// cursor.
func (t *trainer) runScans() {
	workers := min(t.workers, len(t.jobs))
	for len(t.scratch) < max(workers, 1) {
		t.scratch = append(t.scratch, new(scanScratch))
	}
	if workers <= 1 {
		for j := range t.jobs {
			t.scan(&t.jobs[j], t.scratch[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *scanScratch) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(t.jobs) {
					return
				}
				t.scan(&t.jobs[j], s)
			}
		}(t.scratch[w])
	}
	wg.Wait()
}

// scan splits the job's node by presence of its feature, then evaluates
// every candidate of the feature on the present instances. The missing
// mass and the present totals are summed in instance order, and so are
// a categorical feature's per-level sums.
func (t *trainer) scan(job *scanJob, s *scanScratch) {
	job.z, job.cand = math.Inf(1), -1
	col := &t.cols[job.feature]
	categorical := col.level != nil
	if categorical {
		if cap(s.sums) < col.buckets {
			s.sums = make([]wpair, col.buckets)
		}
		s.sums = s.sums[:col.buckets]
		clear(s.sums)
	}
	var wMissing, wpAll, wnAll float64
	anyPresent := false
	for _, i := range t.reach[job.node] {
		w := t.weights[i]
		if !has(col.present, i) {
			wMissing += w
			continue
		}
		anyPresent = true
		match := t.insts[i].Match
		if categorical {
			if e := &s.sums[col.level[i]]; match {
				e.wp += w
			} else {
				e.wn += w
			}
		}
		if match {
			wpAll += w
		} else {
			wnAll += w
		}
	}
	if !anyPresent {
		return
	}
	base := job.wRest + wMissing
	if !categorical {
		t.scanNumeric(job, col, wpAll, wnAll, base)
		return
	}
	for c, b := range col.condLevel {
		e := s.sums[b]
		job.offer(c, zValue(e.wp, e.wn, wpAll-e.wp, wnAll-e.wn, base))
	}
}

// scanNumeric walks the feature's presorted instances, keeping those in
// the job's node, and evaluates every candidate threshold cumulatively:
// a threshold's true side is the weights below it, added in (value,
// index) order.
func (t *trainer) scanNumeric(job *scanJob, col *column, wpAll, wnAll, base float64) {
	member := t.member[job.node]
	conds := t.candidates[job.feature] // sorted by construction (midpoints ascending)
	ci := 0
	var wpLT, wnLT float64
	for k, i := range col.order {
		if !has(member, int(i)) {
			continue
		}
		// Advance thresholds that lie at or below the current value: all
		// instances before it are < threshold.
		for ; ci < len(conds) && conds[ci].Threshold <= col.sorted[k]; ci++ {
			job.offer(ci, zValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base))
		}
		if ci == len(conds) {
			return
		}
		if t.insts[i].Match {
			wpLT += t.weights[i]
		} else {
			wnLT += t.weights[i]
		}
	}
	for ; ci < len(conds); ci++ {
		job.offer(ci, zValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base))
	}
}

// zValue is the Freund–Mason Z criterion with the remainder mass `base`
// (weights outside the precondition plus missing-feature mass).
func zValue(wpT, wnT, wpF, wnF, base float64) float64 {
	return 2*(math.Sqrt(wpT*wnT)+math.Sqrt(wpF*wnF)) + base
}

// addRule attaches the chosen splitter, computes its prediction values,
// reweights, and extends the precondition set.
func (t *trainer) addRule(round, ni int, cond Condition) {
	reach := t.reach[ni]
	var listT, listF []int
	var wpT, wnT, wpF, wnF float64
	for _, i := range reach {
		switch cond.Eval(t.insts[i].X) {
		case 1:
			listT = append(listT, i)
			if t.insts[i].Match {
				wpT += t.weights[i]
			} else {
				wnT += t.weights[i]
			}
		case 0:
			listF = append(listF, i)
			if t.insts[i].Match {
				wpF += t.weights[i]
			} else {
				wnF += t.weights[i]
			}
		}
	}
	nodeT := &PredictionNode{Value: halfLogRatio(wpT, wnT)}
	nodeF := &PredictionNode{Value: halfLogRatio(wpF, wnF)}
	sp := &SplitterNode{Order: round, Cond: cond, True: nodeT, False: nodeF}
	t.nodes[ni].Splitters = append(t.nodes[ni].Splitters, sp)

	for _, i := range listT {
		t.weights[i] *= math.Exp(-sign(t.insts[i].Match) * nodeT.Value)
	}
	for _, i := range listF {
		t.weights[i] *= math.Exp(-sign(t.insts[i].Match) * nodeF.Value)
	}

	n := len(t.insts)
	t.nodes = append(t.nodes, nodeT, nodeF)
	t.reach = append(t.reach, listT, listF)
	t.member = append(t.member, bitsetOf(listT, n), bitsetOf(listF, n))
}
