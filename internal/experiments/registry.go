package experiments

import "io"

// Experiment pairs an id with its reproduction function.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner, w io.Writer) error
}

// All returns every experiment in paper order, followed by the ablations.
func All() []Experiment {
	return []Experiment{
		{"table3", "Item Type Prevalence", (*Runner).Table3},
		{"table4", "Item Type Cardinality", (*Runner).Table4},
		{"fig8", "Tag-Similarity Comparison", (*Runner).Fig8},
		{"fig11", "Data Pattern Counts", (*Runner).Fig11},
		{"fig12", "FP-Growth Run-Time", (*Runner).Fig12},
		{"table5", "Classifier Quality - Maybe values", (*Runner).Table5},
		{"table6", "Classifier Quality - MV source", (*Runner).Table6},
		{"table7", "Full dataset ADT model", (*Runner).Table7},
		{"table8", "ADT model without MV records", (*Runner).Table8},
		{"fig15", "F-1 by NG and MaxMinSup", (*Runner).Fig15},
		{"fig16", "Precision/Recall by NG and MaxMinSup", (*Runner).Fig16},
		{"table9", "Quality under Varying Conditions", (*Runner).Table9},
		{"table10", "Comparative Blocking Techniques", (*Runner).Table10},
		{"ablation-scoring", "Block scoring function", (*Runner).AblationScoring},
		{"ablation-rounds", "ADTree boosting rounds", (*Runner).AblationBoostingRounds},
		{"ablation-maximality", "Direct MFI mining vs mine-all+filter", (*Runner).AblationMaximality},
		{"ablation-pruning", "Frequent-item pruning fraction", (*Runner).AblationPruning},
		{"ablation-workers", "Parallel block construction", (*Runner).AblationWorkers},
		{"ablation-scoring-workers", "Parallel pair scoring", (*Runner).AblationScoringWorkers},
		{"ablation-metablocking", "Meta-blocking comparison cleaning", (*Runner).AblationMetaBlocking},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}
