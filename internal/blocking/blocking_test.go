package blocking

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

func smallCollection(t testing.TB) (*record.Collection, *dataset.Generated) {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = 250
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g.Collection, g
}

func TestAllBlockersRun(t *testing.T) {
	coll, g := smallCollection(t)
	truth := g.Gold.TruePairs()
	truthIdx := make([][2]int, 0, len(truth))
	for _, p := range truth {
		truthIdx = append(truthIdx, [2]int{coll.Index(p.A), coll.Index(p.B)})
	}
	limit := int(MaxBlockShare * float64(coll.Len()))

	for _, b := range All() {
		blocks := b.Block(coll)
		if len(blocks) == 0 {
			t.Errorf("%s produced no blocks", b.Name())
			continue
		}
		for _, blk := range blocks {
			if len(blk.Members) < 2 {
				t.Errorf("%s emitted a singleton block", b.Name())
			}
			if len(blk.Members) > limit {
				t.Errorf("%s emitted an unpurged block of %d", b.Name(), len(blk.Members))
			}
			seen := map[int]bool{}
			for _, m := range blk.Members {
				if m < 0 || m >= coll.Len() {
					t.Fatalf("%s: member %d out of range", b.Name(), m)
				}
				if seen[m] {
					t.Fatalf("%s: duplicate member %d in block %q", b.Name(), m, blk.Key)
				}
				seen[m] = true
			}
		}
		m := EvaluateBlocks(blocks, coll.Len(), truthIdx)
		t.Logf("%-10s recall=%.3f precision=%.5f comparisons=%d", b.Name(), m.Recall, m.Precision, m.TP+m.FP)
		if m.Recall == 0 {
			t.Errorf("%s found no true pairs", b.Name())
		}
	}
}

func TestHighRecallFamilyDominates(t *testing.T) {
	// The value-based techniques (StBl, QGBl, ESoNe and kin) should reach
	// near-total recall on this pre-cleaned data, as in Table 10.
	coll, g := smallCollection(t)
	truth := g.Gold.TruePairs()
	truthIdx := make([][2]int, 0, len(truth))
	for _, p := range truth {
		truthIdx = append(truthIdx, [2]int{coll.Index(p.A), coll.Index(p.B)})
	}
	for _, name := range []string{"StBl", "ACl", "QGBl", "ESoNe"} {
		b := byName(name)
		m := EvaluateBlocks(b.Block(coll), coll.Len(), truthIdx)
		if m.Recall < 0.95 {
			t.Errorf("%s recall = %.3f, want >= 0.95", name, m.Recall)
		}
	}
}

func TestSuffixFamilyMoreSelective(t *testing.T) {
	coll, g := smallCollection(t)
	truth := g.Gold.TruePairs()
	truthIdx := make([][2]int, 0, len(truth))
	for _, p := range truth {
		truthIdx = append(truthIdx, [2]int{coll.Index(p.A), coll.Index(p.B)})
	}
	stbl := EvaluateBlocks(Standard{}.Block(coll), coll.Len(), truthIdx)
	suar := EvaluateBlocks(SuffixArrays{}.Block(coll), coll.Len(), truthIdx)
	if suar.Precision <= stbl.Precision {
		t.Errorf("SuAr precision %.5f should beat StBl %.5f", suar.Precision, stbl.Precision)
	}
}

// byName returns the blocker with the given Table-10 name, or nil.
func byName(name string) Blocker {
	for _, b := range All() {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

func TestByName(t *testing.T) {
	if byName("StBl") == nil || byName("TYPiMatch") == nil {
		t.Error("known blockers not found")
	}
	if byName("nope") != nil {
		t.Error("unknown blocker resolved")
	}
	names := map[string]bool{}
	for _, b := range All() {
		if names[b.Name()] {
			t.Errorf("duplicate blocker name %q", b.Name())
		}
		names[b.Name()] = true
	}
	if len(names) != 10 {
		t.Errorf("expected 10 baselines, got %d", len(names))
	}
}

func TestStandardBlockingExact(t *testing.T) {
	mk := func(id int64, first, last string) *record.Record {
		r := &record.Record{BookID: id}
		r.Add(record.FirstName, first)
		r.Add(record.LastName, last)
		return r
	}
	coll, err := record.NewCollection([]*record.Record{
		mk(1, "Guido", "Foa"),
		mk(2, "Guido", "Levi"),
		mk(3, "Massimo", "Foa"),
		mk(4, "Elsa", "Capelluto"),
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := Standard{}.Block(coll)
	// Expected blocks: F:Guido -> {0,1}, L:Foa -> {0,2}; singleton values purged.
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	bm := Pairs(blocks, coll.Len())
	if !bm.Has(0, 1) || !bm.Has(0, 2) {
		t.Error("expected pairs missing")
	}
	if bm.Has(1, 2) || bm.Has(0, 3) {
		t.Error("unexpected pairs present")
	}
	if bm.Count() != 2 {
		t.Errorf("pair count = %d", bm.Count())
	}
}

func TestAttributeClusteringMergesTypos(t *testing.T) {
	mk := func(id int64, last string) *record.Record {
		r := &record.Record{BookID: id}
		r.Add(record.LastName, last)
		return r
	}
	coll, err := record.NewCollection([]*record.Record{
		mk(1, "Rosenthal"), mk(2, "Rosenthol"), mk(3, "Katz"), mk(4, "Katz"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Standard blocking cannot pair the typo variants...
	bm := Pairs(Standard{}.Block(coll), coll.Len())
	if bm.Has(0, 1) {
		t.Error("StBl paired distinct values")
	}
	// ...but attribute clustering does.
	bm = Pairs(AttributeClustering{Threshold: 0.9}.Block(coll), coll.Len())
	if !bm.Has(0, 1) {
		t.Error("ACl failed to merge Rosenthal/Rosenthol")
	}
	if !bm.Has(2, 3) {
		t.Error("ACl lost the exact match")
	}
}

func TestQGramsPairsOverlappingValues(t *testing.T) {
	mk := func(id int64, last string) *record.Record {
		r := &record.Record{BookID: id}
		r.Add(record.LastName, last)
		return r
	}
	coll, err := record.NewCollection([]*record.Record{
		mk(1, "Kesler"), mk(2, "Kessler"), mk(3, "Postel"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := Pairs(QGrams{Q: 3}.Block(coll), coll.Len())
	if !bm.Has(0, 1) {
		t.Error("QGBl failed to pair Kesler/Kessler")
	}
}

func TestSortedNeighborhoodWindowsNeighbors(t *testing.T) {
	mk := func(id int64, last string) *record.Record {
		r := &record.Record{BookID: id}
		r.Add(record.LastName, last)
		return r
	}
	// Alphabetically adjacent values land in one window even without any
	// shared q-gram. (Padding records keep the windowed block under the
	// half-collection purge guard.)
	coll, err := record.NewCollection([]*record.Record{
		mk(1, "Abel"), mk(2, "Abel"), mk(3, "Abele"), mk(4, "Zweig"),
		mk(5, "Mandel"), mk(6, "Nudel"), mk(7, "Ortman"), mk(8, "Perl"),
		mk(9, "Quint"), mk(10, "Rubin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := Pairs(ExtendedSortedNeighborhood{Window: 2}.Block(coll), coll.Len())
	if !bm.Has(0, 2) {
		t.Error("ESoNe failed to window adjacent values")
	}
}

// TestCanopyDeterministicUnderSeed holds both canopy blockers to one
// output per seed: the same blocks, keys and member order on every run,
// with each canopy's seed leading its block.
func TestCanopyDeterministicUnderSeed(t *testing.T) {
	coll, _ := smallCollection(t)
	for _, b := range []Blocker{Canopy{Seed: 3}, ExtendedCanopy{Canopy{Seed: 3}}} {
		ref := b.Block(coll)
		if len(ref) == 0 {
			t.Fatalf("%s: no blocks", b.Name())
		}
		for _, blk := range ref {
			if want := fmt.Sprintf("canopy@%d", blk.Members[0]); blk.Key != want {
				t.Fatalf("%s: block %s led by %d, not its seed", b.Name(), blk.Key, blk.Members[0])
			}
		}
		for run := 1; run < 10; run++ {
			if got := b.Block(coll); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: run %d differs from run 0", b.Name(), run)
			}
		}
	}
}

func TestExtendedCanopyCoversMore(t *testing.T) {
	coll, _ := smallCollection(t)
	base := Canopy{Seed: 1}
	plain := Pairs(base.Block(coll), coll.Len()).Count()
	ext := Pairs(ExtendedCanopy{Canopy: base}.Block(coll), coll.Len()).Count()
	if ext < plain {
		t.Errorf("ECaCl (%d pairs) should not shrink CaCl (%d)", ext, plain)
	}
}

func TestSuffixesAndSubstrings(t *testing.T) {
	s := suffixes("Capelluto", 6)
	want := []string{"capelluto", "apelluto", "pelluto", "elluto"}
	if len(s) != len(want) {
		t.Fatalf("suffixes = %v", s)
	}
	for i, x := range want {
		if s[i] != x {
			t.Errorf("suffix %d = %q, want %q", i, s[i], x)
		}
	}
	if got := suffixes("Foa", 6); len(got) != 1 || got[0] != "foa" {
		t.Errorf("short suffixes = %v", got)
	}
	subs := substrings("abcdefg", 6)
	if len(subs) != 3 { // abcdef, abcdefg, bcdefg
		t.Errorf("substrings = %v", subs)
	}
}

func TestCombinations(t *testing.T) {
	got := combinations([]string{"ab", "bc", "cd"}, 2)
	// Subsets of size >= 2: {ab,bc},{ab,cd},{bc,cd},{ab,bc,cd}.
	if len(got) != 4 {
		t.Fatalf("combinations = %v", got)
	}
}

func TestEvaluateBlocksEmpty(t *testing.T) {
	m := EvaluateBlocks(nil, 10, [][2]int{{0, 1}})
	if m.Recall != 0 || m.Precision != 0 {
		t.Errorf("empty blocks metrics = %+v", m)
	}
}
