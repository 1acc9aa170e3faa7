package features

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

func BenchmarkExtract(b *testing.B) {
	ex := NewExtractor(fakeGeo{})
	a := rec(func(r *record.Record) {
		r.Source = "list:1"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		r.Add(record.Gender, "0")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthMonth, "11")
		r.Add(record.BirthDay, "18")
		r.Add(record.BirthCity, "Torino")
		r.Add(record.PermCity, "Torino")
		r.Add(record.SpouseName, "Olga")
		r.Add(record.FatherName, "Donato")
	})
	c := rec(func(r *record.Record) {
		r.Source = "list:2"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foy")
		r.Add(record.Gender, "0")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthCity, "Moncalieri")
		r.Add(record.FatherName, "Donato")
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.Extract(a, c)
	}
}

// BenchmarkExtractProfiled measures the pair-time cost once the records'
// profiles are cached — the steady state of the parallel scoring stage.
func BenchmarkExtractProfiled(b *testing.B) {
	ex := NewExtractor(fakeGeo{})
	a := rec(func(r *record.Record) {
		r.Source = "list:1"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		r.Add(record.Gender, "0")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthMonth, "11")
		r.Add(record.BirthDay, "18")
		r.Add(record.BirthCity, "Torino")
		r.Add(record.PermCity, "Torino")
		r.Add(record.SpouseName, "Olga")
		r.Add(record.FatherName, "Donato")
	})
	c := rec(func(r *record.Record) {
		r.Source = "list:2"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foy")
		r.Add(record.Gender, "0")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthCity, "Moncalieri")
		r.Add(record.FatherName, "Donato")
	})
	pa, pc := ex.Profile(a), ex.Profile(c)
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
