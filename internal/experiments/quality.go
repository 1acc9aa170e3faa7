package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
)

// sweepNGs and sweepMms parameterize the Figures 15/16 sweep.
var (
	sweepNGs = []float64{1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	sweepMms = []int{4, 5, 6}
)

// SweepResult is one (MaxMinSup, NG) blocking evaluation.
type SweepResult struct {
	MaxMinSup  int
	NG         float64
	Candidates int
	Metrics    eval.Metrics
}

// Sweep evaluates blocking quality over the NG x MaxMinSup grid on the
// Italy set (memoized by callers through Fig15/Fig16 printing both from
// one pass).
func (r *Runner) Sweep() ([]SweepResult, error) {
	r.mu.Lock()
	cached := r.sweep
	r.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	g := r.Italy()
	pre := r.ItalyPre()
	truth := eval.NewPairSet(g.Gold.TruePairs())
	var out []SweepResult
	for _, mms := range sweepMms {
		for _, ng := range sweepNGs {
			bc := mfiblocks.NewConfig()
			bc.MaxMinSup, bc.NG = mms, ng
			res, err := mfiblocks.Run(bc, pre)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepResult{
				MaxMinSup:  mms,
				NG:         ng,
				Candidates: len(res.Pairs),
				Metrics:    eval.Evaluate(res.Pairs, truth),
			})
		}
	}
	r.mu.Lock()
	r.sweep = out
	r.mu.Unlock()
	return out, nil
}

// Fig15 reports F1 by NG and MaxMinSup.
func (r *Runner) Fig15(w io.Writer) error {
	header(w, "Figure 15", "F-1 score by NG and MaxMinSup")
	return r.printSweep(w, func(s SweepResult) float64 { return s.Metrics.F1 })
}

// Fig16 reports precision and recall by NG and MaxMinSup.
func (r *Runner) Fig16(w io.Writer) error {
	header(w, "Figure 16", "Precision and Recall by NG and MaxMinSup")
	fmt.Fprintln(w, "Recall:")
	if err := r.printSweep(w, func(s SweepResult) float64 { return s.Metrics.Recall }); err != nil {
		return err
	}
	fmt.Fprintln(w, "Precision:")
	return r.printSweep(w, func(s SweepResult) float64 { return s.Metrics.Precision })
}

func (r *Runner) printSweep(w io.Writer, f func(SweepResult) float64) error {
	sweep, err := r.Sweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s", "NG:")
	for _, ng := range sweepNGs {
		fmt.Fprintf(w, " %6.1f", ng)
	}
	fmt.Fprintln(w)
	for _, mms := range sweepMms {
		fmt.Fprintf(w, "MaxMinSup %d:", mms)
		for _, ng := range sweepNGs {
			for _, s := range sweep {
				if s.MaxMinSup == mms && s.NG == ng {
					fmt.Fprintf(w, " %6.3f", f(s))
				}
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// table9NGs are the NG values averaged per condition row (MaxMinSup=5).
var table9NGs = []float64{3, 3.5, 4}

// Table9 reports end-to-end quality under the paper's binary conditions:
// the Base pipeline, expert item-type weighting, the expert similarity
// function, the same-source filter, classification, and the combined
// filters. Each row averages three runs with NG in {3, 3.5, 4}.
func (r *Runner) Table9(w io.Writer) error {
	header(w, "Table 9", "Quality under Varying Conditions")
	g := r.Italy()
	truth := eval.NewPairSet(g.Gold.TruePairs())

	model, err := r.trainOn(r.Tags())
	if err != nil {
		return err
	}

	type condition struct {
		name          string
		expertWeights bool
		expertSim     bool
		sameSrc       bool
		cls           bool
	}
	conditions := []condition{
		{name: "Base"},
		{name: "Expert Weighting", expertWeights: true},
		{name: "ExpertSim", expertWeights: true, expertSim: true},
		{name: "SameSrc", expertWeights: true, sameSrc: true},
		{name: "Cls", expertWeights: true, cls: true},
		{name: "SameSrc + Cls", expertWeights: true, sameSrc: true, cls: true},
	}
	fmt.Fprintf(w, "%-18s %8s %10s %8s\n", "Condition", "Recall", "Precision", "F-1")
	for _, c := range conditions {
		var sumR, sumP, sumF float64
		for _, ng := range table9NGs {
			bc := mfiblocks.NewConfig()
			bc.MaxMinSup = 5
			bc.NG = ng
			bc.ExpertWeights = c.expertWeights
			bc.ExpertSim = c.expertSim
			if c.expertSim {
				bc.Geo = g.Gaz
			}
			opts := core.Options{
				Blocking:   bc,
				Geo:        g.Gaz,
				Preprocess: true,
				Gazetteer:  g.Gaz,
				SameSrc:    c.sameSrc,
			}
			if c.cls {
				opts.Model = model
				opts.Classify = true
			}
			res, err := core.Run(opts, g.Collection)
			if err != nil {
				return err
			}
			m := eval.Evaluate(res.Pairs(), truth)
			sumR += m.Recall
			sumP += m.Precision
			sumF += m.F1
		}
		n := float64(len(table9NGs))
		fmt.Fprintf(w, "%-18s %8.3f %10.3f %8.3f\n", c.name, sumR/n, sumP/n, sumF/n)
	}
	return nil
}
