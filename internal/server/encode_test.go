package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// trickyValues are the strings whose quoting encoding/json special-cases
// with HTML escaping on, plus plain ASCII and valid non-ASCII text.
var trickyValues = []string{
	"", "Levi", "<b>Foa & Co</b>", "\u2028", "a\u2029b",
	"\x00\x01\x07\x08\x09\x0a\x0b\x0c\x0d\x1b\x1f", "\x7f", `say "shalom"`, `C:\path`,
	"\xff", "ab\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80", "Łódź", "Mátészalka", "שלום", "😀",
}

// FuzzAppendQuoted holds the hand-written string quoting to json.Marshal's.
func FuzzAppendQuoted(f *testing.F) {
	for _, s := range trickyValues {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendQuoted(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendQuoted(%q) = %s, want %s", s, got, want)
		}
	})
}

// mapValues is the wire form entity values had before entityValues: a
// fresh map[string][]string per entity, left to json.Marshal to sort and
// quote. It is the oracle the direct encoding must match.
func mapValues(e *core.Entity) map[string][]string {
	out := make(map[string][]string)
	for t, vs := range e.Values {
		for _, v := range vs {
			out[t.String()] = append(out[t.String()], v.Value)
		}
	}
	return out
}

// checkEntityValues compares e's values encoded directly with the oracle,
// both as the marshaler's own bytes and inside a whole entity body.
func checkEntityValues(t *testing.T, e *core.Entity) {
	t.Helper()
	want, err := json.Marshal(mapValues(e))
	if err != nil {
		t.Fatal(err)
	}
	got, err := entityValues(e.Values).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("entity %v values:\n got %s\nwant %s", e.Reports, got, want)
	}
	ej := toJSON(e, true)
	gotBody, err := json.Marshal(ej)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := json.Marshal(struct {
		Reports   []int64             `json:"reports"`
		Name      string              `json:"name"`
		Values    map[string][]string `json:"values"`
		Narrative string              `json:"narrative,omitempty"`
	}{ej.Reports, ej.Name, mapValues(e), ej.Narrative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("entity %v body:\n got %s\nwant %s", e.Reports, gotBody, wantBody)
	}
}

// TestEntityValuesMatchMapEncoding runs the direct values encoding against
// the map oracle on resolved entities whose records carry every tricky
// value in several item types (several values per type, so the within-type
// order shows), on an entity with no items, and on the test corpus.
func TestEntityValuesMatchMapEncoding(t *testing.T) {
	types := []record.ItemType{record.LastName, record.FirstName, record.FatherName,
		record.MotherMaiden, record.Profession, record.BirthCity, record.PermCountry, record.DeathRegion}
	var recs []*record.Record
	for i := range 12 {
		r := &record.Record{BookID: int64(2000000 + i), Source: "list"}
		for j, typ := range types {
			// Records in threes share one value per type, so they block
			// and merge, and hold a second value of their own, so merged
			// entities carry several values per type with differing support.
			for k := range 2 {
				if v := trickyValues[(i/3+j+k*(i%3+1))%len(trickyValues)]; v != "" {
					r.Items = append(r.Items, record.Item{Type: typ, Value: v})
				}
			}
		}
		recs = append(recs, r)
	}
	recs = append(recs, &record.Record{BookID: 2000100, Source: "list"})
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Options{Blocking: mfiblocks.NewConfig()}, coll)
	if err != nil {
		t.Fatal(err)
	}
	merged := false
	for _, c := range []float64{-10, 10} {
		for _, r := range recs {
			e, ok := res.EntityOf(r.BookID, c)
			if !ok {
				t.Fatalf("no entity for %d", r.BookID)
			}
			merged = merged || len(e.Reports) > 1
			checkEntityValues(t, e)
		}
	}
	if !merged {
		t.Error("no records merged; the fixture no longer tests merged values")
	}
	empty, _ := res.EntityOf(2000100, 10)
	if got, _ := entityValues(empty.Values).MarshalJSON(); string(got) != "{}" {
		t.Errorf("entity with no items encodes values as %s, want {}", got)
	}

	_, _, corpus := testServer(t)
	for _, c := range []float64{0.2, 0.4} {
		for _, e := range corpus.Clusters(c) {
			checkEntityValues(t, e)
		}
	}
}
