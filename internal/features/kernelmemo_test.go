package features

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// TestKernelMemoMatchesDirect: over every blocking candidate of the
// 300-person Italy and RandomSet presets, in both orders, under the full
// and the model-restricted extractors, each name feature computed through
// a memo of the production size and through a one-slot memo — whose every
// probe of a new pair evicts the last — has the bits of the memo-free
// computation. The memos live across all the pairs, as a scoring worker's
// do.
func TestKernelMemoMatchesDirect(t *testing.T) {
	italy := dataset.ItalyConfig()
	italy.Persons = 300
	for _, preset := range []struct {
		name string
		cfg  dataset.Config
	}{{"italy", italy}, {"random", dataset.RandomSetConfig(300)}} {
		gen, err := dataset.Generate(preset.cfg)
		if err != nil {
			t.Fatal(err)
		}
		coll := gen.Collection
		blk, err := mfiblocks.Run(mfiblocks.NewConfig(), coll)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []struct {
			name string
			ex   *Extractor
		}{{"full", NewExtractor(gen.Gaz)}, {"model", NewExtractorFor(gen.Gaz, modelFeatures())}} {
			ex := x.ex
			profs := NewProfileCache(ex).Build(coll, 2)
			memos := []*kernelMemo{newKernelMemo(kernelMemoBits), newKernelMemo(0)}
			probes, distinct := 0, map[[3]uint32]bool{}
			for _, p := range blk.Pairs {
				pa, pb := profs[coll.Index(p.A)], profs[coll.Index(p.B)]
				for _, ab := range [2][2]*Profile{{pa, pb}, {pb, pa}} {
					a, b := ab[0], ab[1]
					for id := idNameDist; id < idDateDist; id++ {
						if ex.profiled&(1<<id) == 0 {
							continue
						}
						want := ex.feature(id, a, b, nil)
						for _, memo := range memos {
							got := ex.feature(id, a, b, memo)
							if got.Present != want.Present || math.Float64bits(got.Num) != math.Float64bits(want.Num) {
								t.Fatalf("%s/%s: %v, %s through the memo of %d slots = %+v, direct %+v",
									preset.name, x.name, p, Defs()[id].Name, len(memo.tabs[0]), got, want)
							}
						}
						for _, vx := range a.group(id % len(nameAttrs)) {
							for _, vy := range b.group(id % len(nameAttrs)) {
								if vx != vy {
									probes++
									distinct[[3]uint32{uint32(id), vx, vy}] = true
								}
							}
						}
					}
				}
			}
			// The fixture must repeat value pairs, or no probe would hit.
			if len(distinct) < 2 || probes < 2*len(distinct) {
				t.Errorf("%s/%s: %d kernel probes over %d distinct value pairs: too few repeats to test the memo", preset.name, x.name, probes, len(distinct))
			}
			t.Logf("%s/%s: %d candidates, %d unequal value comparisons, %d distinct", preset.name, x.name, len(blk.Pairs), probes, len(distinct))
		}
	}
}

// TestKernelMemoForgetsAnotherExtractor: value ids are an extractor's own,
// so an evaluator Reset onto another extractor must not answer from what
// its memo learnt under the first. Both extractors here give ids 0 and 7
// to their first two first names (each value's six grams come between),
// Guido/Guida under one and Marco/Mario under the other.
func TestKernelMemoForgetsAnotherExtractor(t *testing.T) {
	firstName := func(v string) *record.Record {
		return rec(func(r *record.Record) { r.Add(record.FirstName, v) })
	}
	var ev PairEval
	ev.MemoizeKernels()
	for _, names := range [][2]string{{"Guido", "Guida"}, {"Marco", "Mario"}} {
		ex := NewExtractor(nil)
		a, b := profileOf(ex, firstName(names[0])), profileOf(ex, firstName(names[1]))
		if a.names[0] != 0 || b.names[0] != 7 {
			t.Fatalf("%v: ids %d and %d, want 0 and 7", names, a.names[0], b.names[0])
		}
		ev.Reset(ex, a, b)
		for _, id := range []int{idNameDist, idNameJW} {
			if got, want := ev.At(id), ex.feature(id, a, b, nil); got != want {
				t.Errorf("%v: memoized %s = %+v, direct %+v", names, Defs()[id].Name, got, want)
			}
		}
	}
}
