package adtree

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	defs := numDefs(3)
	rng := rand.New(rand.NewSource(8))
	var insts []Instance
	for i := 0; i < 300; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x := numVec(a, b, c)
		if rng.Float64() < 0.2 {
			x[rng.Intn(3)].Present = false
		}
		insts = append(insts, Instance{X: x, Match: a < 0.4 || b > 0.8})
	}
	m, err := Train(NewTrainConfig(), defs, insts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if back.Rounds != m.Rounds {
		t.Errorf("rounds %d != %d", back.Rounds, m.Rounds)
	}
	if back.String() != m.String() {
		t.Errorf("rendering differs:\n%s\nvs\n%s", back, m)
	}
	// Scores must be bit-identical for every training instance.
	for _, inst := range insts {
		a, b := m.Score(inst.X), back.Score(inst.X)
		if math.Abs(a-b) > 0 {
			t.Fatalf("score differs: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	// A splitter referencing a nonexistent parent is rejected.
	bad := `{"rounds":1,"root":0.1,"splitters":[{"order":1,"parent":9,"feature":0,"numeric":true,"threshold":1,"true_val":1,"false_val":-1}]}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("dangling parent accepted")
	}
}

func TestLoadEmptyModel(t *testing.T) {
	m, err := Load(strings.NewReader(`{"rounds":0,"root":-0.25}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Score(numVec(1)); got != -0.25 {
		t.Errorf("root-only score = %v", got)
	}
}

// TestLoadRejectsBadSplitters edits the fixture model the way a damaged or
// hand-edited -model file would be: the scorer indexes a fixed-size
// evaluator by a splitter's feature and reads the value its condition's
// type names, so Load must refuse a file where either is off.
func TestLoadRejectsBadSplitters(t *testing.T) {
	raw, err := os.ReadFile(fixtureModel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(m *jsonModel)
		want string
	}{
		{"negative feature", func(m *jsonModel) { m.Splitters[0].Feature = -1 }, "feature -1"},
		{"feature past the list", func(m *jsonModel) { m.Splitters[0].Feature = 60 }, "feature 60"},
		{"features truncated", func(m *jsonModel) { m.Features = m.Features[:10] }, "lists 10 features"},
		{"categorical test on a numeric feature", func(m *jsonModel) { m.Splitters[0].Numeric = false }, "contradicts"},
		{"numeric test on a categorical feature", func(m *jsonModel) { m.Splitters[2].Numeric = true }, "contradicts"},
		{"unknown kind", func(m *jsonModel) { m.Features[m.Splitters[2].Feature].Kind = 7 }, "contradicts"},
	} {
		var jm jsonModel
		if err := json.Unmarshal(raw, &jm); err != nil {
			t.Fatal(err)
		}
		tc.edit(&jm)
		edited, err := json.Marshal(&jm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(edited)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
