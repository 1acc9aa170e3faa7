package repro

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

// benchPersons shrinks the datasets so each benchmark iteration — a full
// regeneration of one table or figure, dataset included — stays in the
// seconds range. yvbench -scale full runs the paper-scale versions.
const benchPersons = 250

// benchExperiment regenerates one experiment end to end per iteration: a
// fresh runner (no memoized artifacts) generates the datasets, runs the
// pipelines, and prints the table to io.Discard.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp := experiments.ByID(id)
	if exp == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Quick)
		r.PersonsOverride = benchPersons
		if err := exp.Run(r, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable3 regenerates the item-type prevalence table (Table 3).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates the item-type cardinality table (Table 4).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig8 regenerates the tag-by-similarity-bin analysis (Figure 8).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig11 regenerates the data-pattern histogram (Figure 11).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates the FP-Growth runtime study (Figure 12).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable5 regenerates the Maybe-handling accuracy table (Table 5).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6 regenerates the MV-source accuracy table (Table 6).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7 retrains and renders the full-set ADT model (Table 7).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8 retrains and renders the MV-less ADT model (Table 8).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkFig15 regenerates the F1-by-NG/MaxMinSup sweep (Figure 15).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates the P/R-by-NG/MaxMinSup sweep (Figure 16).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkTable9 regenerates the varying-conditions quality table
// (Table 9).
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkTable10 regenerates the comparative blocking table (Table 10).
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }

// BenchmarkAblationScoring runs the block-scoring ablation.
func BenchmarkAblationScoring(b *testing.B) { benchExperiment(b, "ablation-scoring") }

// BenchmarkAblationBoostingRounds runs the boosting-rounds ablation.
func BenchmarkAblationBoostingRounds(b *testing.B) { benchExperiment(b, "ablation-rounds") }

// BenchmarkAblationMaximality runs the MFI-mining-strategy ablation.
func BenchmarkAblationMaximality(b *testing.B) { benchExperiment(b, "ablation-maximality") }

// BenchmarkAblationPruning runs the frequent-item-pruning ablation.
func BenchmarkAblationPruning(b *testing.B) { benchExperiment(b, "ablation-pruning") }

// BenchmarkAblationWorkers runs the parallel-construction ablation.
func BenchmarkAblationWorkers(b *testing.B) { benchExperiment(b, "ablation-workers") }

// BenchmarkAblationScoringWorkers runs the parallel pair-scoring ablation:
// one inline scorer against the worker pool.
func BenchmarkAblationScoringWorkers(b *testing.B) { benchExperiment(b, "ablation-scoring-workers") }

// BenchmarkAblationMetaBlocking runs the comparison-cleaning ablation.
func BenchmarkAblationMetaBlocking(b *testing.B) { benchExperiment(b, "ablation-metablocking") }
