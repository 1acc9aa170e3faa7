package adtree

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/features"
)

// Generator flags for the instance sets Train is held to specTrain on.
// Every set has three numeric and two categorical features.
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
	// x2 < 0.5 and x2cat = lo sum the same weights in the same
	// (instance) order, so their Z values tie exactly and the first
	// minimum in feature order picks x2.
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
			// x2 < 0.5 and x2cat = lo hold for the same instances, and x2
			// is binary, so (value, index) order visits them in instance
			// order, the order x2cat sums them in: the Z values tie.
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

// checkMatchesSpec trains the set with specTrain and with the trainer
// at 1, 2 and 8 workers; the models must be equal, in memory and as Save
// writes them.
func checkMatchesSpec(t *testing.T, defs []features.Def, insts []Instance, rounds int) {
	t.Helper()
	cfg := NewTrainConfig()
	cfg.Rounds = rounds
	want := specTrain(rounds, defs, insts)
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
			t.Fatalf("workers=%d: model differs from the spec\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		var gotJSON bytes.Buffer
		if err := got.Save(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("workers=%d: saved model differs from the spec's", workers)
		}
	}
}

// TestTrainMatchesSpec holds Train to specTrain, bit for bit, at every
// worker count.
func TestTrainMatchesSpec(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) {
			defs, insts := genInstances(c.seed, c.n, c.flags)
			checkMatchesSpec(t, defs, insts, c.rounds)
		})
	}
}

// FuzzTrainMatchesSpec widens TestTrainMatchesSpec to any generator
// input. Its testdata seed fails a trainer that sorts by value alone,
// whose sums then follow pdqsort's order of equal values.
func FuzzTrainMatchesSpec(f *testing.F) {
	for _, c := range refCases {
		f.Add(c.seed, uint16(c.n), c.flags, uint8(c.rounds))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flags uint8, rounds uint8) {
		defs, insts := genInstances(seed, int(n)%600+1, flags)
		checkMatchesSpec(t, defs, insts, int(rounds)%40+1)
	})
}

// specTrain is Freund & Mason's boosting written by definition, the spec
// Train must match bit for bit. Each round scores every (precondition,
// condition) by Z and adds the first strict minimum in (node, feature,
// candidate) order. Every sum runs in instance order except a numeric
// true side, which adds the weights below the threshold in (value,
// instance index) order. The spec gets that order from sort.SliceStable
// over instances in index order, not from the trainer's presort, so the
// two agree because the order is total, not because they sort alike.
func specTrain(rounds int, defs []features.Def, insts []Instance) *Model {
	var wp, wn float64
	for _, in := range insts {
		if in.Match {
			wp++
		} else {
			wn++
		}
	}
	root := &PredictionNode{Value: halfLogRatio(wp, wn)}
	w := make([]float64, len(insts))
	all := make([]int, len(insts))
	for i, in := range insts {
		w[i] = math.Exp(-sign(in.Match) * root.Value)
		all[i] = i
	}
	nodes, reach := []*PredictionNode{root}, [][]int{all}
	cands := specCandidates(defs, insts)
	m := &Model{Root: root, Defs: defs}
	for round := 1; round <= rounds; round++ {
		var total float64
		for _, x := range w {
			total += x
		}
		bestZ, bestNode, bestCond := math.Inf(1), -1, Condition{}
		for ni, r := range reach {
			var wNode float64
			for _, i := range r {
				wNode += w[i]
			}
			for f, conds := range cands {
				var present []int
				var wMissing, wpAll, wnAll float64
				for _, i := range r {
					switch {
					case !insts[i].X.At(f).Present:
						wMissing += w[i]
						continue
					case insts[i].Match:
						wpAll += w[i]
					default:
						wnAll += w[i]
					}
					present = append(present, i)
				}
				if len(present) == 0 {
					continue
				}
				if defs[f].Kind != features.Categorical {
					sort.SliceStable(present, func(a, b int) bool {
						return insts[present[a]].X[f].Num < insts[present[b]].X[f].Num
					})
				}
				for _, cond := range conds {
					var wpT, wnT float64
					for _, i := range present {
						if cond.Eval(insts[i].X) != 1 {
							continue
						}
						if insts[i].Match {
							wpT += w[i]
						} else {
							wnT += w[i]
						}
					}
					wpF, wnF := wpAll-wpT, wnAll-wnT
					z := 2*(math.Sqrt(wpT*wnT)+math.Sqrt(wpF*wnF)) + (total - wNode + wMissing)
					if z < bestZ {
						bestZ, bestNode, bestCond = z, ni, cond
					}
				}
			}
		}
		if bestNode < 0 {
			break
		}
		// The rule's two prediction nodes, and the reweighting by them.
		var side [2][]int
		var sums [2][2]float64 // [false, true][non-match, match]
		for _, i := range reach[bestNode] {
			if e := bestCond.Eval(insts[i].X); e >= 0 {
				side[e] = append(side[e], i)
				sums[e][b2i(insts[i].Match)] += w[i]
			}
		}
		nT := &PredictionNode{Value: halfLogRatio(sums[1][1], sums[1][0])}
		nF := &PredictionNode{Value: halfLogRatio(sums[0][1], sums[0][0])}
		nodes[bestNode].Splitters = append(nodes[bestNode].Splitters,
			&SplitterNode{Order: round, Cond: bestCond, True: nT, False: nF})
		for e, node := range []*PredictionNode{nF, nT} {
			for _, i := range side[e] {
				w[i] *= math.Exp(-sign(insts[i].Match) * node.Value)
			}
		}
		nodes = append(nodes, nT, nF)
		reach = append(reach, side[1], side[0])
		m.Rounds = round
	}
	return m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// specCandidates is every feature's base conditions: equality with each
// of a categorical's levels; for a numeric, the midpoints between its
// consecutive distinct observed values, thinned to the (k·len/cap)-th
// for k < cap when there are more than cap = maxThresholds.
func specCandidates(defs []features.Def, insts []Instance) [][]Condition {
	cands := make([][]Condition, len(defs))
	for f, d := range defs {
		if d.Kind == features.Categorical {
			for _, lv := range d.Levels {
				cands[f] = append(cands[f], Condition{Feature: f, Level: lv})
			}
			continue
		}
		var vals []float64
		for _, in := range insts {
			if x := in.X.At(f); x.Present {
				vals = append(vals, x.Num)
			}
		}
		sort.Float64s(vals)
		var mids []float64
		for k := 1; k < len(vals); k++ {
			if vals[k] != vals[k-1] {
				mids = append(mids, (vals[k]+vals[k-1])/2)
			}
		}
		keep := min(len(mids), maxThresholds)
		for k := range keep {
			cands[f] = append(cands[f], Condition{Feature: f, Numeric: true, Threshold: mids[k*len(mids)/keep]})
		}
	}
	return cands
}
