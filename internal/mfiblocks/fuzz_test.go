package mfiblocks

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fpgrowth"
	"repro/internal/gazetteer"
	"repro/internal/record"
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

// FuzzBuildBlocksMatchesNaive holds buildBlocks to naiveBlocks, the spec's
// scan, cap and score per itemset, on generated corpora of up to 200
// reports over a few values each — two genders, four first names and
// birth years, eight last names, and one country most reports hold — so
// that posting lists, and with them the projection's rows, cross one and
// two words. Each report decodes one byte drawn from a palette of 1–32
// seeded bytes: a small palette repeats reports many times over. The
// itemsets are the MFIs mined at minsup, every report's own items (often
// a support of one) and every item alone. The knob picks minsup 2–5
// (bits 0–1), P (bits 2–3), the score floor (bit 4) and ExpertWeights
// (bit 5); buildBlocks runs at 1 and 3 workers.
func FuzzBuildBlocksMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(31), uint8(0x00))
	f.Add(int64(7), uint8(200), uint8(5), uint8(0x17))
	f.Add(int64(42), uint8(150), uint8(12), uint8(0x2e))
	f.Add(int64(1944), uint8(10), uint8(1), uint8(0x39))
	f.Add(int64(3), uint8(0), uint8(0), uint8(0x06)) // no report at all
	f.Fuzz(func(t *testing.T, seed int64, reports, palette, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		pal := make([]byte, 1+int(palette)%32)
		rng.Read(pal)
		recs := make([]*record.Record, int(reports)%201)
		for i := range recs {
			b := pal[rng.Intn(len(pal))]
			r := &record.Record{BookID: int64(i + 1), Source: "list-1", Kind: record.List}
			r.Add(record.Gender, fmt.Sprint(b&1))
			r.Add(record.FirstName, fmt.Sprintf("First%d", b>>1&3))
			r.Add(record.LastName, fmt.Sprintf("Last%d", b>>3&7))
			r.Add(record.BirthYear, fmt.Sprint(1900+int(b>>6)))
			if b>>6 != 3 {
				r.Add(record.BirthCountry, "Italy")
			}
			recs[i] = r
		}
		coll, err := record.NewCollection(recs)
		if err != nil {
			t.Fatal(err)
		}
		corpus := NewCorpus(coll)
		txns := corpus.Txns
		if txns == nil {
			txns = fpgrowth.NewTransactions(0, 0)
		}
		miner := fpgrowth.NewMinerTxns(txns)
		index := miner.BuildIndex()

		minsup := 2 + int(knobs&3)
		mfis := miner.MineMaximal(minsup, nil)
		for i := 0; i < txns.Len(); i++ {
			var items []int
			for _, it := range txns.Txn(i) {
				items = append(items, int(it))
			}
			mfis = append(mfis, fpgrowth.Itemset{Items: items, Support: 1})
		}
		for it := 0; it < index.NumItems(); it++ {
			mfis = append(mfis, fpgrowth.Itemset{Items: []int{it}, Support: 1})
		}

		cfg := NewConfig()
		cfg.P = []float64{1.5, 2.5, 5, 20}[knobs>>2&3]
		cfg.MinScore = []float64{-1, cfg.MinScore}[knobs>>4&1]
		cfg.ExpertWeights = knobs>>5&1 == 1
		sc := newScorer(&cfg, corpus.Dict, txns, corpus.Records)
		members := make([][]int, len(mfis))
		for i, mfi := range mfis {
			members[i] = specMembers(sc, mfi.Items)
		}
		all, wantPruned := naiveBlocks(sc, mfis, members, minsup, int(float64(minsup)*cfg.P))
		want := slices.DeleteFunc(all, func(b *Block) bool { return b.Score <= cfg.MinScore })
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			blocks, pruned := buildBlocks(&cfg, sc, index, mfis, minsup, nil)
			label := fmt.Sprintf("%d reports, minsup %d, P %v, MinScore %v, ExpertWeights %v, %d workers",
				len(recs), minsup, cfg.P, cfg.MinScore, cfg.ExpertWeights, workers)
			if pruned != wantPruned {
				t.Fatalf("%s: csPruned = %d, reference %d", label, pruned, wantPruned)
			}
			if len(blocks)+len(want) > 0 && !reflect.DeepEqual(blocks, want) {
				t.Fatalf("%s: %d blocks diverge from the reference's %d", label, len(blocks), len(want))
			}
		}
	})
}
