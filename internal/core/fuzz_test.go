package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
)

// fuzzCorpus generates a corpus of 2–40 persons (about 80 reports at
// most, so specPipeline's blocking stays fast) from one community, or
// from two when comm's high bit is set: the generator of mfiblocks'
// FuzzRunMatchesSpec.
func fuzzCorpus(seed int64, persons, comm uint8) (*dataset.Generated, error) {
	cfg := dataset.RandomSetConfig(2 + int(persons)%39)
	cfg.Seed = seed
	first := gazetteer.Community(int(comm&0x7f) % gazetteer.NumCommunities)
	cfg.Communities = []dataset.CommunityWeight{{Comm: first, Weight: 1}}
	if comm&0x80 != 0 {
		second := gazetteer.Community((int(first) + 1 + int(comm>>4&3)) % gazetteer.NumCommunities)
		cfg.Communities = append(cfg.Communities, dataset.CommunityWeight{Comm: second, Weight: 1})
	}
	return dataset.Generate(cfg)
}

// fuzzSpillCap is the candidate cap of a spilled fuzz row. A corpus with
// too few candidates to flush twice at that cap gets a smaller one, so
// every spilled row reads its candidates through the merge; a corpus
// with fewer than three candidates cannot flush twice and stays resident.
const fuzzSpillCap = 64

// FuzzPipelineMatchesSpec holds Run to specPipeline, the scoring half by
// definition, on generated corpora under fuzzed knobs: SameSrc (bit 0),
// the deployed model or none (bit 2), Classify with it (bit 1), a worker
// count from {1, 2, 8} (bits 3–4) and the candidates resident or spilled
// (bit 5). The model is the deployed fixture's, trained once per
// process. A resident row scores the blocking result's own position
// columns; a spilled row converts the merge's BookIDs to positions.
func FuzzPipelineMatchesSpec(f *testing.F) {
	f.Add(int64(1), uint8(38), uint8(0), uint8(0x07))       // Italy, 40 persons, deployed configuration, 1 worker
	f.Add(int64(7), uint8(30), uint8(0x81), uint8(0x2f))    // Poland and Germany, spilled, 2 workers
	f.Add(int64(42), uint8(38), uint8(0x05), uint8(0x34))   // Soviet, model without filters, spilled, 8 workers
	f.Add(int64(1944), uint8(20), uint8(0xb3), uint8(0x29)) // two communities, SameSrc without a model, spilled, 2 workers
	f.Fuzz(func(t *testing.T, seed int64, persons, comm, knobs uint8) {
		g, err := fuzzCorpus(seed, persons, comm)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: knobs&1 != 0}
		if knobs>>2&1 != 0 {
			opts.Model, opts.Classify = specItaly(t).opts.Model, knobs>>1&1 != 0
		}
		workers := []int{1, 2, 8}[int(knobs>>3&3)%3]
		want := specPipeline(t, opts, g.Collection)
		if n := len(want.blocking.Pairs); knobs>>5&1 != 0 && n >= 3 {
			opts.Blocking.SpillPairs = min(fuzzSpillCap, n/3)
		}
		t.Logf("%d records, %d candidates, SameSrc %v Classify %v model %v, spill cap %d", g.Collection.Len(),
			len(want.blocking.Pairs), opts.SameSrc, opts.Classify, opts.Model != nil, opts.Blocking.SpillPairs)
		checkRow(t, want, opts, g.Collection, nil, true, workers)
	})
}
