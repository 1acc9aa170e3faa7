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

// BenchmarkExperiments regenerates each experiment of the registry end
// to end per iteration, as a sub-benchmark named by its id: a fresh
// runner (no memoized artifacts) generates the datasets, runs the
// pipelines, and prints the table to io.Discard.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(experiments.Quick)
				r.PersonsOverride = benchPersons
				if err := e.Run(r, io.Discard); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
			}
		})
	}
}
