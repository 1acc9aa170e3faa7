package adtree

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/features"
	"repro/internal/record"
)

// fixtureModel is a model trained over the canonical 48 features (yvtrain
// on the 300-person Italy preset, ten rounds) as Save wrote it.
const fixtureModel = "testdata/model.json"

// FuzzLoad asserts that Load never panics, and that a model it accepts is
// safe to use: it scores an all-present and an all-missing vector, scores
// a pair evaluator when its features fit one, and round-trips through
// Save and Load to the same scores.
func FuzzLoad(f *testing.F) {
	fixture, err := os.ReadFile(fixtureModel)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(`{"rounds":0,"root":-0.25}`))
	f.Add([]byte(`{"rounds":1,"root":0.1,"features":[{"name":"x","kind":0}],"splitters":[{"order":1,"parent":0,"feature":0,"numeric":true,"threshold":1,"true_val":1,"false_val":-1}]}`))
	f.Add([]byte(`{"root":0,"features":[{"name":"x","kind":1,"levels":["a"]}],"splitters":[{"parent":0,"feature":-1,"level":"a"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		present := make(features.Vector, len(m.Defs))
		for i, d := range m.Defs {
			present[i].Present = true
			if len(d.Levels) > 0 {
				present[i].Cat = d.Levels[0]
			}
		}
		missing := make(features.Vector, len(m.Defs))
		if len(m.Defs) <= features.NumFeatures {
			// Every splitter's feature indexes a pair evaluator; a pair
			// of empty records has every feature missing.
			ex := features.NewExtractor(nil)
			empty := ex.Profile(&record.Record{})
			var ev features.PairEval
			ev.Reset(ex, empty, empty)
			if got, want := m.ScorePair(&ev), m.Score(missing); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair of empty records scores %v, the all-missing vector %v", got, want)
			}
		}

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		for _, v := range []features.Vector{present, missing} {
			if a, b := m.Score(v), back.Score(v); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("score %v became %v after Save/Load", a, b)
			}
		}
	})
}
