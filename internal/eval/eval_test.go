package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func TestEvaluateBasics(t *testing.T) {
	truth := NewPairSet([]record.Pair{
		record.MakePair(1, 2),
		record.MakePair(3, 4),
		record.MakePair(5, 6),
	})
	pred := []record.Pair{
		record.MakePair(1, 2),
		record.MakePair(3, 4),
		record.MakePair(7, 8), // FP
	}
	m := Evaluate(pred, truth)
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("confusion = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 || math.Abs(m.Recall-2.0/3) > 1e-12 {
		t.Errorf("P/R = %v/%v", m.Precision, m.Recall)
	}
	if math.Abs(m.F1-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", m.F1)
	}
}

func TestEvaluatePerfectAndEmpty(t *testing.T) {
	truth := NewPairSet([]record.Pair{record.MakePair(1, 2)})
	perfect := Evaluate([]record.Pair{record.MakePair(1, 2)}, truth)
	if perfect.Precision != 1 || perfect.Recall != 1 || perfect.F1 != 1 {
		t.Errorf("perfect = %+v", perfect)
	}
	empty := Evaluate(nil, truth)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Errorf("empty = %+v", empty)
	}
}

func TestEvaluateDeduplicates(t *testing.T) {
	truth := NewPairSet([]record.Pair{record.MakePair(1, 2)})
	pred := []record.Pair{record.MakePair(1, 2), record.MakePair(2, 1), record.MakePair(1, 2)}
	m := Evaluate(pred, truth)
	if m.TP != 1 || m.FP != 0 {
		t.Errorf("duplicates not collapsed: %+v", m)
	}
}

func TestF1IsHarmonicMean(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		truthPairs := make([]record.Pair, 0)
		pred := make([]record.Pair, 0)
		id := int64(0)
		for i := 0; i < int(tp); i++ {
			p := record.MakePair(id, id+1)
			id += 2
			truthPairs = append(truthPairs, p)
			pred = append(pred, p)
		}
		for i := 0; i < int(fp); i++ {
			pred = append(pred, record.MakePair(id, id+1))
			id += 2
		}
		for i := 0; i < int(fn); i++ {
			truthPairs = append(truthPairs, record.MakePair(id, id+1))
			id += 2
		}
		m := Evaluate(pred, NewPairSet(truthPairs))
		if m.Precision+m.Recall == 0 {
			return m.F1 == 0
		}
		want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		return math.Abs(m.F1-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReductionRatio(t *testing.T) {
	if rr := ReductionRatio(0, 100); rr != 1 {
		t.Errorf("RR(0 comparisons) = %v", rr)
	}
	total := 100 * 99 / 2
	if rr := ReductionRatio(total, 100); rr != 0 {
		t.Errorf("RR(all comparisons) = %v", rr)
	}
	if rr := ReductionRatio(10, 0); rr != 0 {
		t.Errorf("RR with no records = %v", rr)
	}
	if rr := ReductionRatio(total*2, 100); rr != 0 {
		t.Errorf("RR clamps at 0, got %v", rr)
	}
}

func TestFolds(t *testing.T) {
	folds := Folds(10, 3)
	if len(folds) != 3 {
		t.Fatalf("fold count = %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		if len(f) == 0 {
			t.Error("empty fold")
		}
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("folds cover %d of 10", len(seen))
	}
	train := TrainIndices(folds, 1)
	if len(train)+len(folds[1]) != 10 {
		t.Errorf("train+holdout = %d", len(train)+len(folds[1]))
	}
	// k > n clamps.
	if got := Folds(2, 5); len(got) != 2 {
		t.Errorf("Folds(2,5) = %d folds", len(got))
	}
	if got := Folds(3, 0); len(got) != 1 {
		t.Errorf("Folds(3,0) = %d folds", len(got))
	}
}

func TestPairBitmap(t *testing.T) {
	bm := NewPairBitmap(5)
	bm.Add(1, 3)
	bm.Add(3, 1) // same pair
	bm.Add(0, 4)
	if !bm.Has(1, 3) || !bm.Has(3, 1) || !bm.Has(4, 0) {
		t.Error("membership wrong")
	}
	if bm.Has(2, 3) {
		t.Error("false membership")
	}
	if bm.Count() != 2 {
		t.Errorf("Count = %d", bm.Count())
	}
	if bm.Has(1, 1) || bm.Has(-1, 2) || bm.Has(2, 9) {
		t.Error("out-of-range membership")
	}
}

func TestPairBitmapExhaustive(t *testing.T) {
	const n = 12
	bm := NewPairBitmap(n)
	rng := rand.New(rand.NewSource(11))
	ref := map[[2]int]bool{}
	for k := 0; k < 40; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		bm.Add(i, j)
		if i > j {
			i, j = j, i
		}
		ref[[2]int{i, j}] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bm.Has(i, j) != ref[[2]int{i, j}] {
				t.Fatalf("(%d,%d) mismatch", i, j)
			}
		}
	}
	if bm.Count() != len(ref) {
		t.Errorf("Count = %d, want %d", bm.Count(), len(ref))
	}
}

func TestPairBitmapPanicsOnBadAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(i,i) must panic")
		}
	}()
	NewPairBitmap(3).Add(1, 1)
}

func TestAccuracy(t *testing.T) {
	if Accuracy(3, 4) != 0.75 {
		t.Error("Accuracy(3,4)")
	}
	if Accuracy(0, 0) != 0 {
		t.Error("Accuracy(0,0)")
	}
}

// TestBCubed checks B-cubed against a hand-worked example. Six items, true
// clusters {0,1,2} {3,4} {5}, predicted clusters {0,1} {2,3,4,5}.
// Precision per item: 1, 1, 1/4, 2/4, 2/4, 1/4, so P = 3.5/6. Recall per
// item: 2/3, 2/3, 1/3, 1, 1, 1, so R = (14/3)/6 = 7/9.
func TestBCubed(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 2}
	cluster := []int{7, 7, 9, 9, 9, 9}
	p, r, err := BCubed(cluster, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-3.5/6) > 1e-12 || math.Abs(r-7.0/9) > 1e-12 {
		t.Fatalf("B-cubed P=%v R=%v, want %v and %v", p, r, 3.5/6, 7.0/9)
	}
	if p, r, _ := BCubed(truth, truth); p != 1 || r != 1 {
		t.Fatalf("the true clustering scores P=%v R=%v, want 1 and 1", p, r)
	}
	// Singletons are all precise; recall is Σ over true clusters of
	// |t| · (1/|t|) = 3 of 6 items.
	if p, r, _ := BCubed([]int{0, 1, 2, 3, 4, 5}, truth); p != 1 || math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("singletons score P=%v R=%v, want 1 and 0.5", p, r)
	}
	if p, r, err := BCubed(nil, nil); p != 0 || r != 0 || err != nil {
		t.Fatalf("no items: P=%v R=%v err=%v", p, r, err)
	}
	if _, _, err := BCubed([]int{0}, nil); err == nil {
		t.Fatal("labellings of unequal length gave no error")
	}
}
