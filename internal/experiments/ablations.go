package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/fpgrowth"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// AblationScoring isolates the block-scoring design choice: the
// set-monotonic itemset Jaccard (uniform and expert-weighted) against the
// expert fsim soft score, at the base configuration.
func (r *Runner) AblationScoring(w io.Writer) error {
	header(w, "Ablation", "Block scoring function")
	g := r.Italy()
	pre := r.ItalyPre()
	truth := eval.NewPairSet(g.Gold.TruePairs())
	fmt.Fprintf(w, "%-22s %8s %10s %8s %10s\n", "Scoring", "Recall", "Precision", "F-1", "Runtime")
	for _, row := range []struct {
		name    string
		weights bool
		fsim    bool
	}{
		{"Jaccard/uniform", false, false},
		{"Jaccard/expert-wts", true, false},
		{"fsim (Eq. 1)", false, true},
	} {
		bc := mfiblocks.NewConfig()
		bc.ExpertWeights = row.weights
		bc.ExpertSim = row.fsim
		if row.fsim {
			bc.Geo = g.Gaz
		}
		t0 := r.now()
		res, err := mfiblocks.Run(bc, pre)
		if err != nil {
			return err
		}
		el := r.now().Sub(t0)
		m := eval.Evaluate(res.Pairs, truth)
		fmt.Fprintf(w, "%-22s %8.3f %10.3f %8.3f %10s\n", row.name, m.Recall, m.Precision, m.F1, el.Round(time.Millisecond))
	}
	return nil
}

// AblationBoostingRounds shows classifier accuracy and model size against
// the number of boosting rounds.
func (r *Runner) AblationBoostingRounds(w io.Writer) error {
	header(w, "Ablation", "ADTree boosting rounds")
	g := r.Italy()
	insts, _, err := core.Instances(r.Tags(), g.Collection, g.Gaz, core.OmitMaybe)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %10s\n", "Rounds", "Accuracy", "Features")
	for _, rounds := range []int{1, 2, 5, 10, 15, 20} {
		cfg := adtree.NewTrainConfig()
		cfg.Rounds = rounds
		acc, err := core.CrossValidate(cfg, insts, 5)
		if err != nil {
			return err
		}
		m, err := adtree.Train(cfg, features.Defs(), insts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %9.1f%% %10d\n", rounds, 100*acc, len(m.UsedFeatures()))
	}
	return nil
}

// AblationMaximality compares direct maximal mining (FPmax-style) against
// mining all frequent itemsets and filtering, validating both the speedup
// and result equality.
func (r *Runner) AblationMaximality(w io.Writer) error {
	header(w, "Ablation", "Direct MFI mining vs mine-all+filter")
	// A small subset keeps the mine-all variant tractable — its
	// exponential blowup at low minsup is exactly what the ablation
	// demonstrates.
	coll := r.ItalyPre()
	limit := 400
	if coll.Len() < limit {
		limit = coll.Len()
	}
	sub, err := record.NewCollection(coll.Records[:limit])
	if err != nil {
		return err
	}
	dict := record.BuildDictionary(sub)
	txns := make([][]int, sub.Len())
	for i, rec := range sub.Records {
		txns[i] = dict.Encode(rec)
	}
	miner := fpgrowth.NewMiner(txns)
	miner.Prune(dict.MostFrequent(0.0003))

	fmt.Fprintf(w, "%-8s %12s %12s %10s %10s %8s\n", "minsup", "direct", "mine-all", "MFIs", "frequent", "equal")
	for _, ms := range []int{4, 3, 2} {
		t0 := r.now()
		direct := miner.MineMaximal(ms, nil)
		dDirect := r.now().Sub(t0)
		if ms == 2 {
			// At minsup=2 the all-frequent enumeration is exponential in
			// the duplicates' shared-itemset sizes — the blowup direct
			// maximal mining exists to avoid. Report direct only.
			fmt.Fprintf(w, "%-8d %12s %12s %10d %10s %8s\n",
				ms, dDirect.Round(time.Millisecond), "(exp.)", len(direct), "-", "-")
			continue
		}
		t1 := r.now()
		all, err := miner.Mine(ms, nil)
		if err != nil {
			return err
		}
		filtered := fpgrowth.FilterMaximal(all)
		dAll := r.now().Sub(t1)
		fmt.Fprintf(w, "%-8d %12s %12s %10d %10d %8v\n",
			ms, dDirect.Round(time.Millisecond), dAll.Round(time.Millisecond),
			len(direct), len(all), sameItemsets(direct, filtered))
	}
	return nil
}

func sameItemsets(a, b []fpgrowth.Itemset) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s fpgrowth.Itemset) string { return fmt.Sprint(s.Items, s.Support) }
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[key(s)] = true
	}
	for _, s := range b {
		if !set[key(s)] {
			return false
		}
	}
	return true
}

// AblationPruning varies the frequent-item pruning fraction and reports
// runtime and recall.
func (r *Runner) AblationPruning(w io.Writer) error {
	header(w, "Ablation", "Frequent-item pruning fraction")
	g := r.Italy()
	pre := r.ItalyPre()
	truth := eval.NewPairSet(g.Gold.TruePairs())
	fmt.Fprintf(w, "%-10s %10s %8s %10s %8s\n", "fraction", "runtime", "recall", "precision", "cand")
	for _, frac := range []float64{0, 0.0003, 0.003, 0.03} {
		bc := mfiblocks.NewConfig()
		bc.PruneFraction = frac
		t0 := r.now()
		res, err := mfiblocks.Run(bc, pre)
		if err != nil {
			return err
		}
		el := r.now().Sub(t0)
		m := eval.Evaluate(res.Pairs, truth)
		fmt.Fprintf(w, "%-10.4f %10s %8.3f %10.3f %8d\n", frac, el.Round(time.Millisecond), m.Recall, m.Precision, len(res.Pairs))
	}
	return nil
}

// AblationWorkers reports blocking runtime against the block-construction
// worker count.
func (r *Runner) AblationWorkers(w io.Writer) error {
	header(w, "Ablation", "Parallel block construction workers")
	pre := r.ItalyPre()
	fmt.Fprintf(w, "%-9s %10s\n", "workers", "runtime")
	for _, n := range []int{1, 2, 4, 8} {
		bc := mfiblocks.NewConfig()
		bc.Workers = n
		t0 := r.now()
		if _, err := mfiblocks.Run(bc, pre); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-9d %10s\n", n, r.now().Sub(t0).Round(time.Millisecond))
	}
	return nil
}

// AblationScoringWorkers reports end-to-end pipeline runtime and the
// scoring stage's throughput against the pair-scoring worker count; 1
// runs one worker. The match list is identical at every count.
func (r *Runner) AblationScoringWorkers(w io.Writer) error {
	header(w, "Ablation", "Parallel pair scoring workers")
	g := r.Italy()
	model, err := r.trainOn(r.Tags())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %10s %10s %10s\n", "workers", "runtime", "matches", "pairs/s")
	var refMatches int
	for _, n := range []int{1, 2, 4, 8} {
		opts := core.Options{
			Blocking:   mfiblocks.NewConfig(),
			Geo:        g.Gaz,
			Preprocess: true,
			Gazetteer:  g.Gaz,
			SameSrc:    true,
			Model:      model,
			Classify:   true,
			Workers:    n,
		}
		t0 := r.now()
		res, err := core.Run(opts, g.Collection)
		if err != nil {
			return err
		}
		el := r.now().Sub(t0)
		scored := len(res.Blocking.Pairs)
		rate := float64(scored) / el.Seconds()
		fmt.Fprintf(w, "%-9d %10s %10d %10.0f\n", n, el.Round(time.Millisecond), len(res.Matches), rate)
		if n == 1 {
			refMatches = len(res.Matches)
		} else if len(res.Matches) != refMatches {
			return fmt.Errorf("scoring workers=%d changed the match count: %d vs %d", n, len(res.Matches), refMatches)
		}
	}
	return nil
}
