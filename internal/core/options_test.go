package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

func TestOptionsValidate(t *testing.T) {
	valid := func() Options {
		return Options{Blocking: mfiblocks.NewConfig()}
	}
	if err := validOpts(valid()).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative workers", func(o *Options) { o.Workers = -1 }, "Workers"},
		{"classify without model", func(o *Options) { o.Classify = true }, "Model"},
		{"NaN NG", func(o *Options) { o.Blocking.NG = math.NaN() }, "NG"},
		{"Inf P", func(o *Options) { o.Blocking.P = math.Inf(1) }, "P"},
		{"NaN prune fraction", func(o *Options) { o.Blocking.PruneFraction = math.NaN() }, "PruneFraction"},
		{"NaN min score", func(o *Options) { o.Blocking.MinScore = math.NaN() }, "MinScore"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mut(&o)
			err := o.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// Run must refuse the same options at the door.
			empty, cerr := record.NewCollection(nil)
			if cerr != nil {
				t.Fatal(cerr)
			}
			if _, runErr := Run(o, empty); runErr == nil {
				t.Errorf("Run accepted options Validate rejects")
			}
		})
	}
}

func validOpts(o Options) *Options { return &o }

// TestMalformedModelRejected: a -model file whose splitters or feature
// list do not fit the extractor's 48 features must be refused before a
// run starts — by adtree.Load when the file contradicts itself, by
// Validate when it is consistent but describes other features — because
// the scorer indexes a fixed-size evaluator with the model's feature ids.
func TestMalformedModelRejected(t *testing.T) {
	raw, err := os.ReadFile("../adtree/testdata/model.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(file []byte) error {
		m, err := adtree.Load(bytes.NewReader(file))
		if err != nil {
			return err
		}
		o := Options{Blocking: mfiblocks.NewConfig(), Model: m, Classify: true}
		return o.Validate()
	}
	if err := check(raw); err != nil {
		t.Fatalf("fixture model rejected: %v", err)
	}
	type obj = map[string]any
	splitter := func(m obj, i int) obj { return m["splitters"].([]any)[i].(obj) }
	for _, tc := range []struct {
		name string
		edit func(m obj)
	}{
		{"feature -1", func(m obj) { splitter(m, 0)["feature"] = -1 }},
		{"feature 60", func(m obj) { splitter(m, 0)["feature"] = 60 }},
		{"features truncated to 10", func(m obj) { m["features"] = m["features"].([]any)[:10] }},
		{"features truncated to 10, splitters within them", func(m obj) {
			m["features"] = m["features"].([]any)[:10]
			m["splitters"] = m["splitters"].([]any)[:2] // FNdist, LNdist
		}},
		{"a feature renamed", func(m obj) { m["features"].([]any)[3].(obj)["name"] = "shoeSize" }},
		{"an untested feature of another kind", func(m obj) { m["features"].([]any)[20].(obj)["kind"] = 1 }}, // MNjw
	} {
		var m obj
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		tc.edit(m)
		file, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(file); err == nil {
			t.Errorf("%s: model accepted", tc.name)
		}
	}
}

func TestNewOptionsDefaults(t *testing.T) {
	fx := newFixture(t, 100)
	opts := NewOptions(fx.gen.Gaz)
	if !opts.Preprocess || !opts.SameSrc || !opts.Classify {
		t.Errorf("defaults wrong: %+v", opts)
	}
	if opts.Blocking.MaxMinSup != mfiblocks.NewConfig().MaxMinSup {
		t.Error("blocking defaults not applied")
	}
	// Classify defaults on but needs a model; supply one and run.
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, fx.gen.Collection, fx.gen.Gaz, MaybeAsNo)
	if err != nil {
		t.Fatal(err)
	}
	opts.Model = model
	opts.Gazetteer = fx.gen.Gaz
	if _, err := Run(opts, fx.gen.Collection); err != nil {
		t.Fatalf("Run with defaults: %v", err)
	}
}

func TestEntityOf(t *testing.T) {
	fx := newFixture(t, 150)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	id := fx.gen.Collection.Records[0].BookID
	e, ok := res.EntityOf(id, 0.3)
	if !ok {
		t.Fatalf("record %d not in any entity", id)
	}
	found := false
	for _, rid := range e.Reports {
		if rid == id {
			found = true
		}
	}
	if !found {
		t.Error("EntityOf returned an entity not containing the record")
	}
	if _, ok := res.EntityOf(-1, 0.3); ok {
		t.Error("unknown record resolved to an entity")
	}
}

func TestInstancesUnknownRecord(t *testing.T) {
	fx := newFixture(t, 100)
	bad := dataset.NewTagSet([]dataset.TaggedPair{
		{Pair: record.MakePair(1, 2), Tag: dataset.Yes},
	})
	if _, _, err := Instances(bad, fx.gen.Collection, fx.gen.Gaz, MaybeAsNo); err == nil {
		t.Error("tagged pair with unknown records accepted")
	}
}
