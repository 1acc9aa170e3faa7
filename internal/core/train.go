package core

import (
	"fmt"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gazetteer"
	"repro/internal/record"
)

// MaybeMode selects how Maybe-tagged pairs enter training (Table 5).
type MaybeMode uint8

// The three Maybe-handling policies the paper compares.
const (
	// MaybeAsNo folds Maybe into the non-match class.
	MaybeAsNo MaybeMode = iota
	// OmitMaybe drops Maybe pairs from training and evaluation.
	OmitMaybe
	// IdentifyMaybe keeps Maybe as a third class to be recognized at
	// run time (implemented as a dedicated Maybe-vs-rest ADTree beside
	// the match model).
	IdentifyMaybe
)

func (m MaybeMode) String() string {
	switch m {
	case MaybeAsNo:
		return "Maybe:=No"
	case OmitMaybe:
		return "Maybe values omitted"
	case IdentifyMaybe:
		return "Identify Maybe values"
	}
	return "MaybeMode(?)"
}

// Instances converts tagged pairs to training instances under the given
// Maybe policy. For IdentifyMaybe it returns the match instances (Maybe
// omitted) plus a parallel Maybe-vs-rest instance set.
func Instances(ts *dataset.TagSet, coll *record.Collection, geo *gazetteer.Gazetteer, mode MaybeMode) (match, maybe []adtree.Instance, err error) {
	xs, err := taggedVectors(ts, coll, geo)
	if err != nil {
		return nil, nil, err
	}
	for i, tp := range ts.Pairs {
		x := xs[i]
		switch mode {
		case MaybeAsNo:
			match = append(match, adtree.Instance{X: x, Match: tp.Tag.IsMatch()})
		case OmitMaybe:
			if tp.Tag != dataset.Maybe {
				match = append(match, adtree.Instance{X: x, Match: tp.Tag.IsMatch()})
			}
		case IdentifyMaybe:
			if tp.Tag != dataset.Maybe {
				match = append(match, adtree.Instance{X: x, Match: tp.Tag.IsMatch()})
			}
			maybe = append(maybe, adtree.Instance{X: x, Match: tp.Tag == dataset.Maybe})
		default:
			return nil, nil, fmt.Errorf("core: unknown MaybeMode %d", mode)
		}
	}
	return match, maybe, nil
}

// taggedVectors computes the feature vector of every tagged pair, in
// ts.Pairs order, from profiles of the whole collection: the same
// features, computed by the same code, that scoring reads.
func taggedVectors(ts *dataset.TagSet, coll *record.Collection, geo *gazetteer.Gazetteer) ([]features.Vector, error) {
	ex := features.NewExtractor(geo)
	profs := features.NewProfileCache(ex).Build(coll, 1)
	xs := make([]features.Vector, len(ts.Pairs))
	for i, tp := range ts.Pairs {
		if tp.Pair.A == tp.Pair.B {
			return nil, fmt.Errorf("%w: tagged pair %v", ErrSelfPair, tp.Pair)
		}
		ia, ib := coll.Index(tp.Pair.A), coll.Index(tp.Pair.B)
		if ia < 0 || ib < 0 {
			return nil, fmt.Errorf("core: tagged pair %v references unknown record", tp.Pair)
		}
		xs[i] = ex.ExtractProfiled(profs[ia], profs[ib])
	}
	return xs, nil
}

// TrainModel trains the match ADTree on the tagged pairs under the given
// Maybe policy.
func TrainModel(cfg adtree.TrainConfig, ts *dataset.TagSet, coll *record.Collection, geo *gazetteer.Gazetteer, mode MaybeMode) (*adtree.Model, error) {
	insts, _, err := Instances(ts, coll, geo, mode)
	if err != nil {
		return nil, err
	}
	return adtree.Train(cfg, features.Defs(), insts)
}

// CrossValidate estimates classification accuracy with k-fold CV over the
// instance set. For IdentifyMaybe, pass the combined three-class scorer
// via CrossValidateMaybe instead.
func CrossValidate(cfg adtree.TrainConfig, insts []adtree.Instance, k int) (float64, error) {
	if len(insts) < k {
		return 0, fmt.Errorf("core: %d instances for %d folds", len(insts), k)
	}
	folds := eval.Folds(len(insts), k)
	correct, total := 0, 0
	for f := range folds {
		var train []adtree.Instance
		for _, i := range eval.TrainIndices(folds, f) {
			train = append(train, insts[i])
		}
		m, err := adtree.Train(cfg, features.Defs(), train)
		if err != nil {
			return 0, err
		}
		for _, i := range folds[f] {
			if m.Classify(insts[i].X) == insts[i].Match {
				correct++
			}
			total++
		}
	}
	return eval.Accuracy(correct, total), nil
}

// threeClassPrediction labels a pair Maybe when the maybe model fires,
// otherwise match/non-match from the match model.
type threeClassPrediction uint8

// Three-class prediction labels.
const (
	predictNo threeClassPrediction = iota
	predictMaybe
	predictYes
)

// CrossValidateMaybe estimates three-class accuracy (Table 5's "Identify
// Maybe" row): a Maybe-vs-rest model gates a match model; a prediction is
// correct when it reproduces the expert's (simplified) grade.
func CrossValidateMaybe(cfg adtree.TrainConfig, ts *dataset.TagSet, coll *record.Collection, geo *gazetteer.Gazetteer, k int) (float64, error) {
	xs, err := taggedVectors(ts, coll, geo)
	if err != nil {
		return 0, err
	}
	if len(xs) < k {
		return 0, fmt.Errorf("core: %d instances for %d folds", len(xs), k)
	}
	folds := eval.Folds(len(xs), k)
	correct, total := 0, 0
	for f := range folds {
		var matchInsts, maybeInsts []adtree.Instance
		for _, i := range eval.TrainIndices(folds, f) {
			tag := ts.Pairs[i].Tag
			maybeInsts = append(maybeInsts, adtree.Instance{X: xs[i], Match: tag == dataset.Maybe})
			if tag != dataset.Maybe {
				matchInsts = append(matchInsts, adtree.Instance{X: xs[i], Match: tag.IsMatch()})
			}
		}
		matchModel, err := adtree.Train(cfg, features.Defs(), matchInsts)
		if err != nil {
			return 0, err
		}
		maybeModel, err := adtree.Train(cfg, features.Defs(), maybeInsts)
		if err != nil {
			return 0, err
		}
		for _, i := range folds[f] {
			pred := predictNo
			switch {
			case maybeModel.Classify(xs[i]):
				pred = predictMaybe
			case matchModel.Classify(xs[i]):
				pred = predictYes
			}
			want := predictNo
			switch tag := ts.Pairs[i].Tag; {
			case tag == dataset.Maybe:
				want = predictMaybe
			case tag.IsMatch():
				want = predictYes
			}
			if pred == want {
				correct++
			}
			total++
		}
	}
	return eval.Accuracy(correct, total), nil
}
