package adtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/features"
)

// Generator flags for the instance sets Train is held to trainReference
// on. Every set has three numeric and two categorical features.
const (
	genTies         = 1 << iota // numeric values quantized to four levels
	genMissing                  // values missing at random, some vectors cut short
	genStrayLevels              // categorical values outside Def.Levels
	genRepeatLevels             // a categorical Def whose Levels repeat
	genTwinColumns              // copies of a numeric and a categorical column, and a binary x2 as a category
	genOneClass                 // every instance has the same label
	genNoSplit                  // numeric values constant, categoricals all missing
)

type refCase struct {
	name   string
	seed   int64
	n      int
	flags  uint8
	rounds int
}

var refCases = []refCase{
	{"continuous", 1, 400, 0, 10},
	{"ties", 2, 400, genTies, 10},
	{"missing", 3, 400, genMissing, 10},
	{"stray levels", 4, 400, genStrayLevels, 10},
	{"repeated levels", 5, 400, genRepeatLevels | genStrayLevels, 10},
	// A stable sort in the numeric scan fails this case: x2's and
	// x2cat's equal Z values then tie exactly, where the reference's
	// pdqsort order leaves them apart in the last bits.
	{"twin columns", 4, 400, genTwinColumns | genTies, 20},
	{"one class", 7, 200, genOneClass | genMissing, 10},
	{"more rounds than instances", 8, 7, genTies, 30},
	{"nothing to split", 9, 50, genNoSplit, 5},
	{"everything", 10, 600, genTies | genMissing | genStrayLevels | genRepeatLevels | genTwinColumns, 15},
}

// genInstances builds the defs and instances a refCase describes.
func genInstances(seed int64, n int, flags uint8) ([]features.Def, []Instance) {
	rng := rand.New(rand.NewSource(seed))
	levels := []string{"a", "b", "c"}
	if flags&genRepeatLevels != 0 {
		levels = []string{"a", "b", "a", "c", "b"}
	}
	defs := []features.Def{
		{Name: "x0", Kind: features.Numeric},
		{Name: "x1", Kind: features.Numeric},
		{Name: "x2", Kind: features.Numeric},
		{Name: "c3", Kind: features.Categorical, Levels: levels},
		{Name: "c4", Kind: features.Categorical, Levels: []string{"yes", "no"}},
	}
	if flags&genTwinColumns != 0 {
		defs = append(defs,
			features.Def{Name: "x0twin", Kind: features.Numeric},
			features.Def{Name: "c3twin", Kind: features.Categorical, Levels: levels},
			features.Def{Name: "x2cat", Kind: features.Categorical, Levels: []string{"lo", "hi"}})
	}
	for i := range defs {
		defs[i].ID = i
	}
	num := func() float64 {
		switch {
		case flags&genNoSplit != 0:
			return 0.5
		case flags&genTies != 0:
			return float64(rng.Intn(4)) / 4
		}
		return rng.Float64()
	}
	cat := func(lv []string) string {
		if flags&genStrayLevels != 0 && rng.Intn(5) == 0 {
			return []string{"stray", ""}[rng.Intn(2)]
		}
		return lv[rng.Intn(len(lv))]
	}
	insts := make([]Instance, n)
	for i := range insts {
		x := make(features.Vector, len(defs))
		for f := 0; f < 3; f++ {
			x[f] = features.Value{Present: true, Num: num()}
		}
		x[3] = features.Value{Present: true, Cat: cat(levels)}
		x[4] = features.Value{Present: true, Cat: cat([]string{"yes", "no"})}
		if flags&genTwinColumns != 0 {
			// x2 < 0.5 and x2cat = lo hold for the same instances, so the
			// two Z values are equal but summed in different orders: sorted
			// for x2, instance order for x2cat.
			x[2].Num = float64(rng.Intn(2))
			x[5], x[6] = x[0], x[3]
			x[7] = features.Value{Present: true, Cat: []string{"lo", "hi"}[int(x[2].Num)]}
		}
		if flags&genNoSplit != 0 {
			x[3].Present, x[4].Present = false, false
		}
		if flags&genMissing != 0 {
			for f := range x {
				if rng.Intn(4) == 0 {
					x[f] = features.Value{}
				}
			}
			if rng.Intn(10) == 0 {
				x = x[:rng.Intn(len(x))]
			}
		}
		match := x.At(0).Num < 0.5 != (x.At(3).Cat == "b") != (x.At(2).Num > 0.5) != (rng.Intn(8) == 0)
		if flags&genOneClass != 0 {
			match = seed%2 == 0
		}
		insts[i] = Instance{X: x, Match: match}
	}
	return defs, insts
}

// checkMatchesReference trains the set with trainReference and with the
// trainer at 1, 2 and 8 workers; the models must be equal, in memory and
// as Save writes them.
func checkMatchesReference(t *testing.T, defs []features.Def, insts []Instance, rounds int) {
	t.Helper()
	cfg := NewTrainConfig()
	cfg.Rounds = rounds
	want, err := trainReference(cfg, defs, insts)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := want.Save(&wantJSON); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		tr, err := newTrainer(cfg, defs, insts)
		if err != nil {
			t.Fatal(err)
		}
		tr.workers = workers
		got := tr.train()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: model differs from the reference\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		var gotJSON bytes.Buffer
		if err := got.Save(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("workers=%d: saved model differs from the reference's", workers)
		}
	}
}

// TestTrainMatchesReference holds Train to the straightforward trainer
// it replaced, bit for bit, at every worker count.
func TestTrainMatchesReference(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) {
			defs, insts := genInstances(c.seed, c.n, c.flags)
			checkMatchesReference(t, defs, insts, c.rounds)
		})
	}
}

func FuzzTrainMatchesReference(f *testing.F) {
	for _, c := range refCases {
		f.Add(c.seed, uint16(c.n), c.flags, uint8(c.rounds))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flags uint8, rounds uint8) {
		defs, insts := genInstances(seed, int(n)%600+1, flags)
		checkMatchesReference(t, defs, insts, int(rounds)%40+1)
	})
}

// trainReference is Train as it was before the split search was
// rewritten, kept verbatim (identifiers renamed) as the oracle the
// trainer must match bit for bit.
func trainReference(cfg TrainConfig, defs []features.Def, insts []Instance) (*Model, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("adtree: no training instances")
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("adtree: Rounds must be >= 1, got %d", cfg.Rounds)
	}
	if cfg.MaxThresholds < 1 {
		cfg.MaxThresholds = 48
	}

	t := &refTrainer{cfg: cfg, defs: defs, insts: insts}
	t.init()
	for round := 1; round <= cfg.Rounds; round++ {
		if !t.boostOnce(round) {
			break // no splittable mass left
		}
	}
	return &Model{Root: t.root, Defs: defs, Rounds: t.completed}, nil
}

// refTrainer carries boosting state.
type refTrainer struct {
	cfg   TrainConfig
	defs  []features.Def
	insts []Instance

	weights   []float64
	root      *PredictionNode
	nodes     []*PredictionNode // all prediction nodes (preconditions)
	reach     [][]int           // per node: instance indices reaching it
	completed int

	candidates [][]Condition // per feature
}

func (t *refTrainer) init() {
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
}

// buildCandidates enumerates the base conditions per feature: equality
// with each level for categoricals, and midpoints of observed values
// (quantile-thinned) for numerics.
func (t *refTrainer) buildCandidates() {
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

// boostOnce adds the rule minimizing the Z criterion. It reports false
// when no candidate improves on the trivial rule.
func (t *refTrainer) boostOnce(round int) bool {
	totalW := 0.0
	for _, w := range t.weights {
		totalW += w
	}

	type best struct {
		z    float64
		node int
		cond Condition
		ok   bool
	}
	bst := best{z: math.Inf(1)}

	for ni := range t.nodes {
		reach := t.reach[ni]
		if len(reach) == 0 {
			continue
		}
		var wNode float64
		for _, i := range reach {
			wNode += t.weights[i]
		}
		wRest := totalW - wNode

		for f := range t.candidates {
			if len(t.candidates[f]) == 0 {
				continue
			}
			// Split the node's mass by presence of feature f.
			var wMissing float64
			var present []int
			for _, i := range reach {
				if f < len(t.insts[i].X) && t.insts[i].X[f].Present {
					present = append(present, i)
				} else {
					wMissing += t.weights[i]
				}
			}
			if len(present) == 0 {
				continue
			}
			base := wRest + wMissing

			if t.defs[f].Kind == features.Categorical {
				t.scanCategorical(&bst.z, &bst.node, &bst.cond, &bst.ok, ni, f, present, base)
			} else {
				t.scanNumeric(&bst.z, &bst.node, &bst.cond, &bst.ok, ni, f, present, base)
			}
		}
	}
	if !bst.ok {
		return false
	}
	t.addRule(round, bst.node, bst.cond)
	t.completed = round
	return true
}

// scanCategorical evaluates every level of feature f at node ni.
func (t *refTrainer) scanCategorical(bestZ *float64, bestNode *int, bestCond *Condition, ok *bool, ni, f int, present []int, base float64) {
	// Per-level positive/negative weights.
	type wpair struct{ wp, wn float64 }
	perLevel := make(map[string]wpair)
	var wpAll, wnAll float64
	for _, i := range present {
		w := t.weights[i]
		lv := t.insts[i].X[f].Cat
		e := perLevel[lv]
		if t.insts[i].Match {
			e.wp += w
			wpAll += w
		} else {
			e.wn += w
			wnAll += w
		}
		perLevel[lv] = e
	}
	for _, cond := range t.candidates[f] {
		e := perLevel[cond.Level]
		z := refZValue(e.wp, e.wn, wpAll-e.wp, wnAll-e.wn, base)
		if z < *bestZ {
			*bestZ, *bestNode, *bestCond, *ok = z, ni, cond, true
		}
	}
}

// scanNumeric sweeps the sorted present values once, evaluating every
// candidate threshold cumulatively.
func (t *refTrainer) scanNumeric(bestZ *float64, bestNode *int, bestCond *Condition, ok *bool, ni, f int, present []int, base float64) {
	type rec struct {
		v     float64
		w     float64
		match bool
	}
	recs := make([]rec, len(present))
	var wpAll, wnAll float64
	for k, i := range present {
		recs[k] = rec{v: t.insts[i].X[f].Num, w: t.weights[i], match: t.insts[i].Match}
		if recs[k].match {
			wpAll += recs[k].w
		} else {
			wnAll += recs[k].w
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].v < recs[b].v })

	conds := t.candidates[f] // sorted by construction (midpoints ascending)
	ci := 0
	var wpLT, wnLT float64
	for k := 0; k < len(recs) && ci < len(conds); k++ {
		// Advance thresholds that lie at or below the current value: all
		// records before k are < threshold.
		for ci < len(conds) && conds[ci].Threshold <= recs[k].v {
			z := refZValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base)
			if z < *bestZ {
				*bestZ, *bestNode, *bestCond, *ok = z, ni, conds[ci], true
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
		z := refZValue(wpLT, wnLT, wpAll-wpLT, wnAll-wnLT, base)
		if z < *bestZ {
			*bestZ, *bestNode, *bestCond, *ok = z, ni, conds[ci], true
		}
	}
}

// refZValue is the Freund–Mason Z criterion with the remainder mass `base`
// (weights outside the precondition plus missing-feature mass).
func refZValue(wpT, wnT, wpF, wnF, base float64) float64 {
	return 2*(math.Sqrt(wpT*wnT)+math.Sqrt(wpF*wnF)) + base
}

// addRule attaches the chosen splitter, computes its prediction values,
// reweights, and extends the precondition set.
func (t *refTrainer) addRule(round, ni int, cond Condition) {
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
