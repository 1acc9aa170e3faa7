package features

import (
	"fmt"
	"runtime"
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
// builders' value tables absorb — for a full extractor (training's) and
// one restricted to a model's features (scoring's). Each run starts from
// a new extractor, as a scoring stage does, and reports the bytes it
// allocates per record next to ns/record.
func BenchmarkProfileBuild(b *testing.B) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		b.Fatal(err)
	}
	records := gen.Collection.Len()
	for _, tc := range []struct {
		name string
		ex   func() *Extractor
	}{
		{"full", func() *Extractor { return NewExtractor(gen.Gaz) }},
		{"restricted", func() *Extractor { return NewExtractorFor(gen.Gaz, modelFeatures()) }},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if got := NewProfileCache(tc.ex()).Build(gen.Collection, workers); len(got) != records {
						b.Fatalf("built %d profiles for %d records", len(got), records)
					}
				}
				runtime.ReadMemStats(&after)
				per := float64(b.N * records)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/record")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/record")
			})
		}
	}
}
