package experiments

import (
	"fmt"
	"io"

	"repro/internal/blocking"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// AblationMetaBlocking studies comparison cleaning: Standard Blocking's
// raw pair set against its meta-blocked refinements (all weight/prune
// scheme combinations), with MFIBlocks as the reference point — does
// generic comparison cleaning close the precision gap the paper's
// classification-based cleaning closes?
func (r *Runner) AblationMetaBlocking(w io.Writer) error {
	header(w, "Ablation", "Meta-blocking (comparison cleaning) over StBl")
	g := r.Italy()
	pre := r.ItalyPre()
	// The comparison graph materializes per-pair weights; StBl emits
	// ~n²/3 pairs, so cap the study size to keep the weight maps in
	// memory (the behaviour under study is scale-free).
	const maxRecords = 3000
	if pre.Len() > maxRecords {
		sub, err := record.NewCollection(pre.Records[:maxRecords])
		if err != nil {
			return err
		}
		pre = sub
		fmt.Fprintf(w, "(capped to the first %d records)\n", maxRecords)
	}
	// Truth restricted to pairs with both members inside the (possibly
	// capped) collection, so every method shares one recall denominator.
	var truth []record.Pair
	truthIdx := make([][2]int, 0)
	for _, p := range g.Gold.TruePairs() {
		i, j := pre.Index(p.A), pre.Index(p.B)
		if i >= 0 && j >= 0 {
			truth = append(truth, p)
			truthIdx = append(truthIdx, [2]int{i, j})
		}
	}

	fmt.Fprintf(w, "%-14s %8s %10s %12s\n", "Method", "Recall", "Precision", "Comparisons")

	blocks := blocking.Standard{}.Block(pre)
	base := blocking.EvaluateBlocks(blocks, pre.Len(), truthIdx)
	fmt.Fprintf(w, "%-14s %8.3f %10.5f %12d\n", "StBl raw", base.Recall, base.Precision, base.TP+base.FP)

	for _, ws := range []blocking.WeightScheme{blocking.CBS, blocking.JS, blocking.ARCS} {
		for _, ps := range []blocking.PruneScheme{blocking.WEP, blocking.WNP} {
			mb := blocking.MetaBlocking{Weight: ws, Prune: ps}
			kept := mb.Refine(blocks, pre.Len())
			recall, precision := blocking.EvaluatePairs(kept, pre.Len(), truthIdx)
			fmt.Fprintf(w, "%-14s %8.3f %10.5f %12d\n", fmt.Sprintf("StBl+%s/%s", ws, ps), recall, precision, len(kept))
		}
	}

	res, err := mfiblocks.Run(mfiblocks.NewConfig(), pre)
	if err != nil {
		return err
	}
	m := eval.Evaluate(res.Pairs, eval.NewPairSet(truth))
	fmt.Fprintf(w, "%-14s %8.3f %10.5f %12d\n", "MFIBlocks", m.Recall, m.Precision, len(res.Pairs))
	return nil
}
