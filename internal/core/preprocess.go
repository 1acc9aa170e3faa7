package core

import (
	"repro/internal/gazetteer"
	"repro/internal/names"
	"repro/internal/record"
)

// Preprocess folds value variants into equivalence classes, mirroring the
// Names Project preprocessing ("equivalence classes of first names, last
// names and places ... were created to help deal with multiple spellings
// and variants"): first-name-like values map to their nickname-class
// canonical; place city values map to their gazetteer canonical. Typos
// survive — preprocessing resolves registered variants, not arbitrary
// clerical errors. The input collection is not modified.
func Preprocess(coll *record.Collection) (*record.Collection, error) {
	return PreprocessWith(coll, gazetteer.Builtin(0))
}

// PreprocessWith is Preprocess with an explicit gazetteer for place
// canonicalization. A nil gazetteer skips place folding. The result
// shares every record preprocessing leaves unchanged with coll.
func PreprocessWith(coll *record.Collection, gaz *gazetteer.Gazetteer) (*record.Collection, error) {
	out := make([]*record.Record, coll.Len())
	for i, r := range coll.Records {
		out[i] = preprocessRecord(r, gaz)
	}
	return record.NewCollection(out)
}

// preprocessRecord canonicalizes one record's values — the per-record
// kernel PreprocessWith applies collection-wide and the streaming ingest
// stage applies record by record. The input record is not modified: it
// is returned as is when no value changes, and cloned at the first value
// that does.
func preprocessRecord(r *record.Record, gaz *gazetteer.Gazetteer) *record.Record {
	out := r
	for k, it := range r.Items {
		v := it.Value
		switch {
		case it.Type.IsName() && it.Type != record.LastName &&
			it.Type != record.MaidenName && it.Type != record.MotherMaiden:
			v = names.Canonical(v)
		case it.Type.IsPlace():
			if _, part, _ := it.Type.Place(); part == record.City && gaz != nil {
				if p, ok := gaz.Lookup(v); ok {
					v = p.City
				}
			}
		}
		if v != it.Value {
			if out == r {
				out = r.Clone()
			}
			out.Items[k].Value = v
		}
	}
	return out
}
