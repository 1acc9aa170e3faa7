// Quickstart: generate a small Names-Project-shaped dataset, run the
// uncertain entity resolution pipeline, and inspect the ranked matches —
// the minimal end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/record"
)

func main() {
	// 1. A small Italy-like dataset with known ground truth.
	cfg := dataset.ItalyConfig()
	cfg.Persons = 500
	gen, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d victim reports, %d true persons\n",
		gen.Collection.Len(), gen.Gold.Entities())

	// 2. Resolve with the default pipeline (preprocessing + MFIBlocks +
	//    same-source filter; no trained classifier yet, so matches are
	//    ranked by blocking similarity).
	opts := core.NewOptions(gen.Gaz)
	opts.Gazetteer = gen.Gaz
	opts.Classify = false // no model in the quickstart
	res, err := core.Run(opts, gen.Collection)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d ranked matches (%d same-source pairs discarded)\n",
		len(res.Matches), res.Report.Scoring.SameSrcDropped)

	// 3. The uncertain-ER model: the same resolution serves different
	//    certainty levels at query time.
	truth := eval.NewPairSet(gen.Gold.TruePairs())
	for _, theta := range []float64{0.2, 0.4, 0.6} {
		accepted := res.AtCertainty(theta)
		m := eval.Evaluate(pairsOf(res, theta), truth)
		fmt.Printf("certainty >= %.1f: %4d matches  precision=%.2f recall=%.2f\n",
			theta, len(accepted), m.Precision, m.Recall)
	}

	// 4. Crisp entities on demand.
	entities := res.Clusters(0.4)
	multi := 0
	for _, e := range entities {
		if len(e.Reports) > 1 {
			multi++
		}
	}
	fmt.Printf("at certainty 0.4 the %d reports resolve to %d entities (%d multi-report)\n",
		gen.Collection.Len(), len(entities), multi)
}

func pairsOf(res *core.Resolution, theta float64) []record.Pair {
	ms := res.AtCertainty(theta)
	out := make([]record.Pair, len(ms))
	for i, m := range ms {
		out[i] = m.Pair
	}
	return out
}
