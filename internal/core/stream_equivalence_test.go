package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
)

// equivDataset generates one seeded Italy-like corpus for the
// equivalence matrix.
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

// assertResolutionsMatch asserts the streaming run reproduces the batch
// run bit-for-bit on everything derived from the ranked matches:
// Matches, Pairs, discard counters, and the 0.3-certainty clustering.
func assertResolutionsMatch(t *testing.T, label string, want, got *Resolution) {
	t.Helper()
	if !reflect.DeepEqual(want.Matches, got.Matches) {
		t.Fatalf("%s: Matches diverge (%d vs %d)", label, len(got.Matches), len(want.Matches))
	}
	if !reflect.DeepEqual(want.Pairs(), got.Pairs()) {
		t.Fatalf("%s: Pairs diverge", label)
	}
	ws, gs := want.Report.Scoring, got.Report.Scoring
	if ws.SameSrcDropped != gs.SameSrcDropped || ws.ModelDropped != gs.ModelDropped {
		t.Fatalf("%s: discard counters diverge: samesrc %d/%d model %d/%d", label,
			gs.SameSrcDropped, ws.SameSrcDropped, gs.ModelDropped, ws.ModelDropped)
	}
	wc, gc := want.Clusters(0.3), got.Clusters(0.3)
	if len(wc) != len(gc) {
		t.Fatalf("%s: cluster counts diverge: %d vs %d", label, len(gc), len(wc))
	}
	for i := range wc {
		if !reflect.DeepEqual(wc[i].Reports, gc[i].Reports) {
			t.Fatalf("%s: cluster %d membership diverges", label, i)
		}
	}
}

// TestStreamShardEquivalence locks the streaming pipeline — windowless
// ingest, disk-spilled candidates, skeleton records — to a batch Run
// with in-memory candidates and full records, bit-for-bit, across
// worker counts on multiple seeds. The spill cap is
// forced tiny so every cell actually exercises the disk-merge path.
func TestStreamShardEquivalence(t *testing.T) {
	datasets := []struct {
		persons int
		seed    int64
	}{
		{250, 1944},
		{200, 777},
	}
	for _, d := range datasets {
		g := equivDataset(t, d.persons, d.seed)
		base := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
		want, err := Run(base, g.Collection)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatal("baseline produced no matches")
		}

		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("seed=%d workers=%d", d.seed, workers)
			opts := StreamOptions{Options: base}
			opts.Workers = workers
			opts.Blocking.SpillPairs = 64
			opts.Blocking.SpillDir = t.TempDir()
			got, err := RunStream(opts, NewCollectionSource(g.Collection))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Blocking.Spill.Stats().Runs == 0 {
				t.Fatalf("%s: spill cap 64 never spilled; harness is not exercising the merge", label)
			}
			assertResolutionsMatch(t, label, want, got)
		}
	}
}

// TestStreamRetainRecordsFullEquivalence runs the streaming pipeline
// with records retained: beyond match equality, the entity views must
// carry the identical merged values, since the retained records are the
// same preprocessed records the batch path resolved.
func TestStreamRetainRecordsFullEquivalence(t *testing.T) {
	g := equivDataset(t, 250, 1944)
	base := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	want, err := Run(base, g.Collection)
	if err != nil {
		t.Fatal(err)
	}

	opts := StreamOptions{Options: base, RetainRecords: true}
	opts.Blocking.SpillPairs = 128
	opts.Blocking.SpillDir = t.TempDir()
	got, err := RunStream(opts, NewCollectionSource(g.Collection))
	if err != nil {
		t.Fatal(err)
	}
	assertResolutionsMatch(t, "retained", want, got)
	if !reflect.DeepEqual(want.Clusters(0.3), got.Clusters(0.3)) {
		t.Fatal("retained-records clustering diverges beyond membership")
	}
}

// tieHeavyRecords builds groups of byte-identical records so block
// scores collide massively — candidate ties land on worker-chunk
// boundaries and in the same spill windows, the worst case for merge
// determinism.
func tieHeavyRecords(t *testing.T) *record.Collection {
	t.Helper()
	var records []*record.Record
	id := int64(1)
	for group := 0; group < 12; group++ {
		first := fmt.Sprintf("Name%c", 'A'+group)
		last := fmt.Sprintf("Fam%c", 'A'+group%4)
		for dup := 0; dup < 5; dup++ {
			r := &record.Record{BookID: id, Source: fmt.Sprintf("list-%d", dup), Kind: record.List}
			r.Add(record.FirstName, first)
			r.Add(record.LastName, last)
			r.Add(record.BirthYear, "1910")
			records = append(records, r)
			id++
		}
	}
	coll, err := record.NewCollection(records)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// TestStreamDeterministicUnderShardBoundaryTies runs the tie-heavy
// fixture through the spilled pipeline at one and eight workers, twice
// each, against the batch baseline: identical output every time, or the
// block order or the spill merge has a tie leak.
func TestStreamDeterministicUnderShardBoundaryTies(t *testing.T) {
	coll := tieHeavyRecords(t)
	blocking := mfiblocks.NewConfig()
	blocking.PruneFraction = 0
	base := Options{Blocking: blocking, Preprocess: false, SameSrc: true}
	want, err := Run(base, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("tie-heavy fixture produced no matches")
	}

	for _, workers := range []int{1, 8} {
		for run := 0; run < 2; run++ {
			opts := StreamOptions{Options: base}
			opts.Workers = workers
			opts.Blocking.SpillPairs = 16
			opts.Blocking.SpillDir = t.TempDir()
			got, err := RunStream(opts, NewCollectionSource(coll))
			if err != nil {
				t.Fatal(err)
			}
			if got.Blocking.Spill.Stats().Runs == 0 {
				t.Fatal("spill cap 16 never spilled")
			}
			assertResolutionsMatch(t, fmt.Sprintf("workers=%d run=%d", workers, run), want, got)
		}
	}
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

// TestStreamFromStore drives RunStream from an actual .yvst store
// reader, closing the loop the 1M benchmark depends on: store → streamed
// ingest → blocking → spilled scoring.
func TestStreamFromStore(t *testing.T) {
	g := equivDataset(t, 150, 1944)
	base := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	want, err := Run(base, g.Collection)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "records.yvst")
	if err := store.WriteAll(path, g.Collection.Records); err != nil {
		t.Fatal(err)
	}
	src, err := store.OpenWindowReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	opts := StreamOptions{Options: base}
	opts.Blocking.SpillPairs = 64
	opts.Blocking.SpillDir = t.TempDir()
	got, err := RunStream(opts, src)
	if err != nil {
		t.Fatal(err)
	}
	assertResolutionsMatch(t, "store", want, got)
}
