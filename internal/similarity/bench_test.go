package similarity

import (
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/record"
)

func BenchmarkJaro(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jaro("Capelluto", "Capeluto")
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JaroWinkler("Rosenthal", "Rosenthol")
	}
}

// BenchmarkJaccardInterned measures the steady-state scoring path: gram
// IDs already interned per record, pair time is a merge intersection.
func BenchmarkJaccardInterned(b *testing.B) {
	in := NewInterner()
	ga := QGramIDs(in, "Ottolenghi", 2)
	gb := QGramIDs(in, "Ottolengi", 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JaccardSortedIDs(ga, gb)
	}
}

// BenchmarkQGramIDs measures per-record gram interning (profile build
// time, paid once per record rather than once per pair).
func BenchmarkQGramIDs(b *testing.B) {
	in := NewInterner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		QGramIDs(in, "Ottolenghi", 2)
	}
}

func BenchmarkItemSimGeo(b *testing.B) {
	s := ItemSim{Geo: gazetteer.Builtin(0)}
	x := record.Item{Type: record.BirthCity, Value: "Torino"}
	y := record.Item{Type: record.BirthCity, Value: "Moncalieri"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compare(x, y)
	}
}
