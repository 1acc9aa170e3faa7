package features

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkExtractProfiled measures the pair-time cost once the records'
// profiles are cached — the steady state of the parallel scoring stage.
func BenchmarkExtractProfiled(b *testing.B) {
	ex := NewExtractor(twoCities)
	a, c := allocPair()
	pa, pc := profileOf(ex, a), profileOf(ex, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.ExtractProfiled(pa, pc)
	}
}

// BenchmarkProfileBuild measures ProfileCache.Build per record on a
// RandomSet-shaped collection, whose few thousand distinct name values
// and few hundred cities repeat across every record — the traffic the
// builders' value tables absorb. Run with -benchmem for allocs/record.
func BenchmarkProfileBuild(b *testing.B) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		b.Fatal(err)
	}
	records := gen.Collection.Len()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := NewProfileCache(NewExtractor(gen.Gaz)).Build(gen.Collection, workers); len(got) != records {
					b.Fatalf("built %d profiles for %d records", len(got), records)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
