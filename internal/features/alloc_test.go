package features

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

// allocPair builds the bench fixture pair used by the allocation guards.
func allocPair() (*record.Record, *record.Record) {
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
	b := rec(func(r *record.Record) {
		r.Source = "list:2"
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foy")
		r.Add(record.Gender, "0")
		r.Add(record.BirthYear, "1920")
		r.Add(record.BirthCity, "Moncalieri")
		r.Add(record.FatherName, "Donato")
	})
	return a, b
}

// TestExtractProfiledAllocs guards the steady-state pair cost: with
// profiles cached, the only allocation ExtractProfiled may make is the
// result Vector itself — the interned gram merges, pooled kernels, and
// memo lookups must all be allocation-free.
func TestExtractProfiledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool drops items)")
	}
	for _, tc := range []struct {
		name string
		memo *PairMemo
	}{
		{"no-memo", nil},
		{"memo", NewPairMemo(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := NewExtractor(fakeGeo{})
			ex.Memo = tc.memo
			a, b := allocPair()
			pa, pb := ex.Profile(a), ex.Profile(b)
			// Warm the memo so the measured runs are pure hits.
			ex.ExtractProfiled(pa, pb)
			if n := testing.AllocsPerRun(200, func() { ex.ExtractProfiled(pa, pb) }); n > 1 {
				t.Errorf("ExtractProfiled allocates %v per op, want <= 1 (the Vector)", n)
			}
		})
	}
}

// TestProfileBuildAllocs bounds what Build allocates per record. The slab
// and arenas make a profile itself cost no heap object; what is left is
// one joined birth date per record plus the lowering, gramming and
// interning of each distinct value, which the value table pays once per
// builder — a dozen allocations per record without it.
func TestProfileBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool drops items)")
	}
	gen, err := dataset.Generate(dataset.RandomSetConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		NewProfileCache(NewExtractor(gen.Gaz)).Build(gen.Collection, 2)
	})
	if per := n / float64(gen.Collection.Len()); per > 3 {
		t.Errorf("Build allocates %.2f times per record, want <= 3", per)
	}
}
