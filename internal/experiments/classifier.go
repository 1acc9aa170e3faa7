package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
)

const cvFolds = 10

// Table5 reports classifier accuracy under the three Maybe-handling
// policies (10-fold cross-validation).
func (r *Runner) Table5(w io.Writer) error {
	header(w, "Table 5", "Classifier Quality - Maybe values")
	g := r.Italy()
	tags := r.Tags()
	cfg := adtree.NewTrainConfig()

	fmt.Fprintf(w, "%-28s %8s %10s\n", "Condition", "N", "Accuracy")
	for _, mode := range []core.MaybeMode{core.MaybeAsNo, core.OmitMaybe, core.IdentifyMaybe} {
		var acc float64
		var n int
		var err error
		if mode == core.IdentifyMaybe {
			n = tags.Len()
			acc, err = core.CrossValidateMaybe(cfg, tags, g.Collection, g.Gaz, cvFolds)
		} else {
			insts, _, ierr := core.Instances(tags, g.Collection, g.Gaz, mode)
			if ierr != nil {
				return ierr
			}
			n = len(insts)
			acc, err = core.CrossValidate(cfg, insts, cvFolds)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s %8d %9.1f%%\n", mode, n, 100*acc)
	}
	return nil
}

// withoutMV filters tagged pairs involving a record submitted by the
// extreme-volume submitter.
func withoutMV(tags *dataset.TagSet, g *dataset.Generated) *dataset.TagSet {
	if g.MVSource == "" {
		return tags
	}
	var kept []dataset.TaggedPair
	for _, tp := range tags.Pairs {
		ra, rb := g.Collection.ByID(tp.Pair.A), g.Collection.ByID(tp.Pair.B)
		if ra.Source == g.MVSource || rb.Source == g.MVSource {
			continue
		}
		kept = append(kept, tp)
	}
	return dataset.NewTagSet(kept)
}

// Table6 reports classifier accuracy with and without the MV submitter's
// records (Maybe omitted, as in the paper's preferred configuration).
func (r *Runner) Table6(w io.Writer) error {
	header(w, "Table 6", "Classifier Quality - MV source")
	g := r.Italy()
	cfg := adtree.NewTrainConfig()

	full := r.Tags()
	reduced := withoutMV(full, g)

	fmt.Fprintf(w, "%-14s %8s %10s\n", "Condition", "N", "Accuracy")
	for _, row := range []struct {
		name string
		ts   *dataset.TagSet
	}{{"With MV", full}, {"Without MV", reduced}} {
		insts, _, err := core.Instances(row.ts, g.Collection, g.Gaz, core.OmitMaybe)
		if err != nil {
			return err
		}
		acc, err := core.CrossValidate(cfg, insts, cvFolds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %8d %9.1f%%\n", row.name, len(insts), 100*acc)
	}
	mvPairs := full.Len() - reduced.Len()
	fmt.Fprintf(w, "(pairs involving an MV record: %d of %d)\n", mvPairs, full.Len())
	return nil
}

// trainOn trains the match model on a tag set with Maybe omitted.
func (r *Runner) trainOn(ts *dataset.TagSet) (*adtree.Model, error) {
	g := r.Italy()
	return core.TrainModel(adtree.NewTrainConfig(), ts, g.Collection, g.Gaz, core.OmitMaybe)
}

// Table7 renders the ADTree trained on the full tagged set.
func (r *Runner) Table7(w io.Writer) error {
	header(w, "Table 7", "Full dataset ADT model")
	return r.printModel(w, r.Tags())
}

// Table8 renders the ADTree trained without the MV submitter's records.
func (r *Runner) Table8(w io.Writer) error {
	header(w, "Table 8", "ADT model without MV records")
	return r.printModel(w, withoutMV(r.Tags(), r.Italy()))
}

// printModel trains on ts and renders the tree and the features it uses.
func (r *Runner) printModel(w io.Writer, ts *dataset.TagSet) error {
	m, err := r.trainOn(ts)
	if err != nil {
		return err
	}
	var names []string
	for _, f := range m.UsedFeatures() {
		names = append(names, features.Defs()[f].Name)
	}
	fmt.Fprintf(w, "%s(features used: %s)\n", m, strings.Join(names, ", "))
	return nil
}
