package mfiblocks

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gazetteer"
)

// fuzzConfig derives a blocking configuration from the fuzzer's knob
// bits: NG (bits 0–2), MaxMinSup 3–6 (bits 3–4), P (bits 5–6), the
// default PruneFraction or none (bit 7), MinScore (bits 8–9) and
// ExpertWeights (bit 10).
func fuzzConfig(knobs uint16) Config {
	cfg := NewConfig()
	cfg.NG = []float64{1, 1.5, 2, 3.5, 5}[int(knobs&7)%5]
	cfg.MaxMinSup = 3 + int(knobs>>3&3)
	cfg.P = []float64{1.5, 2.5, 5, 20}[knobs>>5&3]
	if knobs>>7&1 == 1 {
		cfg.PruneFraction = 0
	}
	cfg.MinScore = []float64{0.1, -1, 0, 0.3}[knobs>>8&3]
	cfg.ExpertWeights = knobs>>10&1 == 1
	return cfg
}

// fuzzCorpus generates a corpus of 2–40 persons (about 80 reports at
// most, so specRun's candidate closure stays fast) from one community, or
// from two when comm's high bit is set. A single community repeats its
// few dozen surnames many times over: the skewed, overlapping itemsets of
// the large ladder rungs, at fuzz size.
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

// FuzzRunMatchesSpec holds Run to specRun, Algorithm 1 by definition, on
// generated corpora under fuzzed knobs, at a worker count from
// {1, 2, 3, 8}: the blocks, the pairs in order with their scores, the
// coverage, every level's statistics and the aligned pair columns.
func FuzzRunMatchesSpec(f *testing.F) {
	f.Add(int64(1), uint8(38), uint8(0), uint16(0x003), uint8(1))     // Italy, 40 persons, NG 3.5, MaxMinSup 3
	f.Add(int64(7), uint8(30), uint8(0x81), uint16(0x118), uint8(3))  // Poland and Germany, MinScore -1
	f.Add(int64(42), uint8(38), uint8(0x05), uint16(0x4a0), uint8(2)) // Soviet, unpruned, ExpertWeights, MaxMinSup 3
	f.Add(int64(1944), uint8(20), uint8(0xb3), uint16(0x260), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, persons, comm uint8, knobs uint16, workers uint8) {
		g, err := fuzzCorpus(seed, persons, comm)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzzConfig(knobs)
		cfg.Workers = []int{1, 2, 3, 8}[workers%4]
		want := specRun(cfg, g.Collection)
		got, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d records, NG %v MaxMinSup %d P %v PruneFraction %v MinScore %v ExpertWeights %v, %d workers",
			g.Collection.Len(), cfg.NG, cfg.MaxMinSup, cfg.P, cfg.PruneFraction, cfg.MinScore, cfg.ExpertWeights, cfg.Workers)
		matchesSpec(t, label, got, want)
		columnsMatch(t, label, got, NewCorpus(g.Collection).BookIDs)
	})
}
