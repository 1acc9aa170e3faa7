package core

import (
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
)

// equivDataset generates one seeded Italy-like corpus.
func equivDataset(t *testing.T, persons int, seed int64) *dataset.Generated {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = persons
	cfg.Seed = seed
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamValidation pins the streaming-specific constraints: value-
// dependent scoring cannot run over skeleton records.
func TestStreamValidation(t *testing.T) {
	g := equivDataset(t, 50, 1944)
	fx := newFixture(t, 200)
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, fx.gen.Collection, fx.gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}

	opts := StreamOptions{Options: Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Model: model}}
	if _, err := RunStream(opts, NewCollectionSource(g.Collection)); err == nil {
		t.Fatal("model without RetainRecords accepted")
	}

	expert := StreamOptions{Options: Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz}}
	expert.Blocking.ExpertSim = true
	expert.Blocking.Geo = g.Gaz
	if _, err := RunStream(expert, NewCollectionSource(g.Collection)); err == nil {
		t.Fatal("ExpertSim without RetainRecords accepted")
	}

	opts.RetainRecords = true
	if _, err := RunStream(opts, NewCollectionSource(g.Collection)); err != nil {
		t.Fatalf("retained model run rejected: %v", err)
	}
}
