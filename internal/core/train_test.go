package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/record"
)

// TestTrainedModelGolden pins the trained ADTree byte for byte: the file
// holds Model.Save's output under OmitMaybe and under MaybeAsNo, so a
// change to how training extracts its pair features that moves a single
// threshold or prediction value shows as a diff. Regenerate with
//
//	go test ./internal/core -run TestTrainedModelGolden -update
func TestTrainedModelGolden(t *testing.T) {
	fx := newFixture(t, 300)
	var got bytes.Buffer
	got.WriteString("{\n")
	for i, m := range []struct {
		key  string
		mode MaybeMode
	}{{"omit_maybe", OmitMaybe}, {"maybe_as_no", MaybeAsNo}} {
		model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, fx.gen.Collection, fx.gen.Gaz, m.mode)
		if err != nil {
			t.Fatalf("%v: %v", m.mode, err)
		}
		if i > 0 {
			got.WriteString(",\n")
		}
		got.WriteString(`"` + m.key + `": `)
		if err := model.Save(&got); err != nil {
			t.Fatal(err)
		}
	}
	got.WriteString("}\n")

	golden := filepath.Join("testdata", "model.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trained models drifted from %s (run with -update if intended)", golden)
	}
}

// TestInstancesSelfPair checks that a tagged pair of a report with itself
// is refused, not trained on, under every Maybe policy.
func TestInstancesSelfPair(t *testing.T) {
	fx := newFixture(t, 100)
	id := fx.gen.Collection.Records[0].BookID
	self := record.MakePair(id, id)
	ts := dataset.NewTagSet(append(fx.tags.Pairs[:10:10], dataset.TaggedPair{Pair: self, Tag: dataset.Yes}))
	for _, mode := range []MaybeMode{MaybeAsNo, OmitMaybe, IdentifyMaybe} {
		_, _, err := Instances(ts, fx.gen.Collection, fx.gen.Gaz, mode)
		if !errors.Is(err, ErrSelfPair) {
			t.Fatalf("%v: Instances over a self-pair returned %v, want ErrSelfPair", mode, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(self)) {
			t.Errorf("%v: error %q does not name the pair", mode, err)
		}
	}
	if _, err := CrossValidateMaybe(adtree.NewTrainConfig(), ts, fx.gen.Collection, fx.gen.Gaz, 3); !errors.Is(err, ErrSelfPair) {
		t.Errorf("CrossValidateMaybe over a self-pair returned %v, want ErrSelfPair", err)
	}
}
