package adtree

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
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
	// MaxThresholds caps the candidate split points per numeric feature;
	// candidates are value midpoints, quantile-thinned beyond the cap.
	MaxThresholds int
}

// NewTrainConfig returns the defaults used across the experiments.
func NewTrainConfig() TrainConfig {
	return TrainConfig{Rounds: 10, MaxThresholds: 48}
}

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
	reach     [][]int           // per node: instance indices reaching it
	completed int

	candidates [][]Condition // per feature
	cols       []column      // per feature with candidates
	jobs       []scanJob     // this round's (node, feature) scans
	scratch    []*scanScratch
}

// column is one feature over every instance, laid out once per Train
// so that a scan reads flat arrays instead of the instances' vectors.
type column struct {
	present []uint64 // bit i: instance i has the feature
	num     []float64
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

// scanScratch is one worker's reused buffers.
type scanScratch struct {
	present []int
	recs    []numRec
	sums    []wpair
}

type numRec struct {
	v     float64
	w     float64
	match bool
}

type wpair struct{ wp, wn float64 }

func newTrainer(cfg TrainConfig, defs []features.Def, insts []Instance) (*trainer, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("adtree: no training instances")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("adtree: Rounds must be >= 1, got %d", cfg.Rounds)
	}
	if cfg.MaxThresholds < 1 {
		cfg.MaxThresholds = 48
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
	t.weights = make([]float64, n)
	var wp, wn float64
	for i, inst := range t.insts {
		t.weights[i] = 1
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

	// Reweight by the root prediction.
	for i, inst := range t.insts {
		t.weights[i] = math.Exp(-sign(inst.Match) * t.root.Value)
	}

	t.buildCandidates()
	t.buildColumns()
}

// buildCandidates enumerates the base conditions per feature: equality
// with each level for categoricals, and midpoints of observed values
// (quantile-thinned) for numerics.
func (t *trainer) buildCandidates() {
	t.candidates = make([][]Condition, len(t.defs))
	for _, d := range t.defs {
		if d.Kind == features.Categorical {
			for _, lv := range d.Levels {
				t.candidates[d.ID] = append(t.candidates[d.ID], Condition{Feature: d.ID, Level: lv})
			}
			continue
		}
		var vals []float64
		for _, inst := range t.insts {
			if d.ID < len(inst.X) && inst.X[d.ID].Present {
				vals = append(vals, inst.X[d.ID].Num)
			}
		}
		if len(vals) < 2 {
			continue
		}
		sort.Float64s(vals)
		var mids []float64
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				mids = append(mids, (vals[i]+vals[i-1])/2)
			}
		}
		if len(mids) > t.cfg.MaxThresholds {
			thinned := make([]float64, 0, t.cfg.MaxThresholds)
			for k := 0; k < t.cfg.MaxThresholds; k++ {
				thinned = append(thinned, mids[k*len(mids)/t.cfg.MaxThresholds])
			}
			mids = thinned
		}
		for _, m := range mids {
			t.candidates[d.ID] = append(t.candidates[d.ID], Condition{Feature: d.ID, Numeric: true, Threshold: m})
		}
	}
}

// buildColumns lays out every feature that has candidates as a column.
// A categorical candidate's bucket is keyed by its Level, so candidates
// repeating a level share one bucket.
func (t *trainer) buildColumns() {
	n := len(t.insts)
	t.cols = make([]column, len(t.candidates))
	for f, conds := range t.candidates {
		if len(conds) == 0 {
			continue
		}
		col := &t.cols[f]
		col.present = make([]uint64, (n+63)/64)
		categorical := t.defs[f].Kind == features.Categorical
		var bucket map[string]int32
		if categorical {
			bucket = make(map[string]int32, len(conds))
			col.condLevel = make([]int32, len(conds))
			for c, cond := range conds {
				b, ok := bucket[cond.Level]
				if !ok {
					b = int32(len(bucket))
					bucket[cond.Level] = b
				}
				col.condLevel[c] = b
			}
			col.buckets = len(bucket) + 1
			col.level = make([]int32, n)
		} else {
			col.num = make([]float64, n)
		}
		other := int32(len(bucket))
		for i, inst := range t.insts {
			if f >= len(inst.X) || !inst.X[f].Present {
				continue
			}
			col.present[i>>6] |= 1 << (uint(i) & 63)
			if !categorical {
				col.num[i] = inst.X[f].Num
				continue
			}
			b, ok := bucket[inst.X[f].Cat]
			if !ok {
				b = other
			}
			col.level[i] = b
		}
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
// every candidate of the feature on the present instances.
func (t *trainer) scan(job *scanJob, s *scanScratch) {
	job.z, job.cand = math.Inf(1), -1
	col := &t.cols[job.feature]
	var wMissing float64
	present := s.present[:0]
	for _, i := range t.reach[job.node] {
		if col.present[i>>6]&(1<<(uint(i)&63)) != 0 {
			present = append(present, i)
		} else {
			wMissing += t.weights[i]
		}
	}
	s.present = present
	if len(present) == 0 {
		return
	}
	base := job.wRest + wMissing
	if t.defs[job.feature].Kind == features.Categorical {
		t.scanCategorical(job, col, present, base, s)
	} else {
		t.scanNumeric(job, col, present, base, s)
	}
}

// scanCategorical evaluates every level of the job's feature.
func (t *trainer) scanCategorical(job *scanJob, col *column, present []int, base float64, s *scanScratch) {
	// Per-level positive/negative weights.
	if cap(s.sums) < col.buckets {
		s.sums = make([]wpair, col.buckets)
	}
	sums := s.sums[:col.buckets]
	clear(sums)
	var wpAll, wnAll float64
	for _, i := range present {
		w := t.weights[i]
		e := &sums[col.level[i]]
		if t.insts[i].Match {
			e.wp += w
			wpAll += w
		} else {
			e.wn += w
			wnAll += w
		}
	}
	for c, b := range col.condLevel {
		e := sums[b]
		z := zValue(e.wp, e.wn, wpAll-e.wp, wnAll-e.wn, base)
		if z < job.z {
			job.z, job.cand = z, c
		}
	}
}

// scanNumeric sweeps the sorted present values once, evaluating every
// candidate threshold cumulatively. The sort is per (node, feature), not
// once per feature: the order of equal values fixes the last bits of the
// partial sums, and with them the argmin between equal partitions.
// slices.SortFunc is the pdqsort of sort.Slice and orders ties as it
// does, which TestTrainMatchesReference holds it to.
func (t *trainer) scanNumeric(job *scanJob, col *column, present []int, base float64, s *scanScratch) {
	recs := s.recs[:0]
	var wpAll, wnAll float64
	for _, i := range present {
		r := numRec{v: col.num[i], w: t.weights[i], match: t.insts[i].Match}
		if r.match {
			wpAll += r.w
		} else {
			wnAll += r.w
		}
		recs = append(recs, r)
	}
	s.recs = recs
	slices.SortFunc(recs, byValue)

	conds := t.candidates[job.feature] // sorted by construction (midpoints ascending)
	ci := 0
	var wpLT, wnLT float64
	for k := 0; k < len(recs) && ci < len(conds); k++ {
		// Advance thresholds that lie at or below the current value: all
		// records before k are < threshold.
		for ci < len(conds) && conds[ci].Threshold <= recs[k].v {
			z := zValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base)
			if z < job.z {
				job.z, job.cand = z, ci
			}
			ci++
		}
		if recs[k].match {
			wpLT += recs[k].w
		} else {
			wnLT += recs[k].w
		}
	}
	for ; ci < len(conds); ci++ {
		z := zValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base)
		if z < job.z {
			job.z, job.cand = z, ci
		}
	}
}

// byValue orders numeric records by value; cmp < 0 exactly when the
// less function sort.Slice was given held.
func byValue(a, b numRec) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
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

	t.nodes = append(t.nodes, nodeT, nodeF)
	t.reach = append(t.reach, listT, listF)
}
