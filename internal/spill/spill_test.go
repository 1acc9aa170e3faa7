package spill

import (
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
)

// drain consumes an iterator, asserting strict (A, B) ascending order, and
// returns the merged stream as a map plus the ordered pair list.
func drain(t *testing.T, it *Iter) (map[record.Pair]float64, []record.Pair) {
	t.Helper()
	out := make(map[record.Pair]float64)
	var order []record.Pair
	for {
		p, score, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := len(order); n > 0 {
			prev := order[n-1]
			if p.A < prev.A || (p.A == prev.A && p.B <= prev.B) {
				t.Fatalf("iteration out of order: %v after %v", p, prev)
			}
		}
		if _, dup := out[p]; dup {
			t.Fatalf("pair %v delivered twice", p)
		}
		out[p] = score
		order = append(order, p)
	}
	if got := it.pairs.Stats().MergedEntries; got != int64(len(order)) {
		t.Fatalf("MergedEntries=%d, want %d", got, len(order))
	}
	return out, order
}

// genEvents produces a deterministic event stream with heavy pair reuse so
// max-combine is exercised both inside a window and across runs.
func genEvents(n int) []struct {
	p record.Pair
	s float64
} {
	rng := rand.New(rand.NewSource(7))
	events := make([]struct {
		p record.Pair
		s float64
	}, n)
	for i := range events {
		a := int64(rng.Intn(60))
		b := int64(rng.Intn(60))
		if a == b {
			b++
		}
		events[i].p = record.MakePair(a, b)
		events[i].s = rng.Float64()
	}
	return events
}

// reference folds the event stream with max-combine in plain Go.
func reference(events []struct {
	p record.Pair
	s float64
}) map[record.Pair]float64 {
	want := make(map[record.Pair]float64)
	for _, e := range events {
		if old, ok := want[e.p]; !ok || e.s > old {
			want[e.p] = e.s
		}
	}
	return want
}

// TestPairsInMemory covers the no-spill path: a cap larger than the
// distinct-pair count must never touch disk.
func TestPairsInMemory(t *testing.T) {
	events := genEvents(500)
	want := reference(events)

	s := NewPairs(1<<20, t.TempDir())
	defer s.Close()
	for _, e := range events {
		if _, err := s.Add(e.p, e.s); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Runs != 0 || st.SpilledEntries != 0 || st.SpilledBytes != 0 {
		t.Fatalf("in-memory run spilled: %+v", st)
	}
	if len(s.mem) != len(want) {
		t.Fatalf("window holds %d pairs, want %d", len(s.mem), len(want))
	}
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drain(t, it)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for p, sc := range want {
		if got[p] != sc {
			t.Fatalf("pair %v: score %v, want %v", p, got[p], sc)
		}
	}
}

// TestPairsResident covers the hand-over of a window that never spilled:
// the pairs come back in first-seen order with their maximal scores, and
// the accumulator is finished. Once a run has gone to disk there is no
// resident form, and the merge still delivers every pair.
func TestPairsResident(t *testing.T) {
	events := genEvents(500)
	want := reference(events)
	var firstSeen []record.Pair
	seen := map[record.Pair]bool{}
	for _, e := range events {
		if !seen[e.p] {
			seen[e.p] = true
			firstSeen = append(firstSeen, e.p)
		}
	}

	s := NewPairs(len(want), t.TempDir())
	for _, e := range events {
		if _, err := s.Add(e.p, e.s); err != nil {
			t.Fatal(err)
		}
	}
	pairs, scores, ok := s.Resident()
	if !ok {
		t.Fatalf("a window holding every pair is not resident: %+v", s.Stats())
	}
	if !reflect.DeepEqual(pairs, firstSeen) {
		t.Fatal("resident pairs are not in first-seen order")
	}
	if !reflect.DeepEqual(scores, want) {
		t.Fatal("resident scores are not the max-combined scores")
	}
	if _, err := s.Add(record.MakePair(1000, 1001), 0.5); err == nil {
		t.Fatal("Add after Resident succeeded")
	}

	s = NewPairs(len(want)-1, t.TempDir())
	defer s.Close()
	for _, e := range events {
		if _, err := s.Add(e.p, e.s); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.Resident(); ok {
		t.Fatal("a spilled accumulator reported a resident window")
	}
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := drain(t, it); !reflect.DeepEqual(got, want) {
		t.Fatal("merge after a refused hand-over lost pairs")
	}
}

// TestPairsSpillEquivalence asserts the merged stream is identical for any
// window cap — the core purity claim the streaming pipeline relies on.
func TestPairsSpillEquivalence(t *testing.T) {
	events := genEvents(3000)
	want := reference(events)

	for _, capEntries := range []int{1, 8, 97, 1 << 20} {
		s := NewPairs(capEntries, t.TempDir())
		for _, e := range events {
			if _, err := s.Add(e.p, e.s); err != nil {
				t.Fatal(err)
			}
		}
		if capEntries == 8 && s.Stats().Runs < 2 {
			t.Fatalf("cap=8 produced %d runs, want several", s.Stats().Runs)
		}
		it, err := s.Iter()
		if err != nil {
			t.Fatal(err)
		}
		got, order := drain(t, it)
		if len(got) != len(want) {
			t.Fatalf("cap=%d: got %d pairs, want %d", capEntries, len(got), len(want))
		}
		for p, sc := range want {
			if got[p] != sc {
				t.Fatalf("cap=%d pair %v: score %v, want %v", capEntries, p, got[p], sc)
			}
		}
		if len(order) != len(want) {
			t.Fatalf("cap=%d: order has %d entries", capEntries, len(order))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPairsFirstSeen pins Add's first-seen report: exact while nothing has
// spilled, window-local afterwards.
func TestPairsFirstSeen(t *testing.T) {
	s := NewPairs(2, t.TempDir())
	defer s.Close()
	p1 := record.MakePair(1, 2)
	p2 := record.MakePair(3, 4)
	p3 := record.MakePair(5, 6)

	if first, _ := s.Add(p1, 0.5); !first {
		t.Fatal("p1 not first-seen")
	}
	if first, _ := s.Add(p1, 0.9); first {
		t.Fatal("repeat p1 reported first-seen")
	}
	if first, _ := s.Add(p2, 0.4); !first {
		t.Fatal("p2 not first-seen")
	}
	// Window full: p3 forces a flush, evicting p1 and p2 to disk.
	if first, _ := s.Add(p3, 0.3); !first {
		t.Fatal("p3 not first-seen")
	}
	if s.Stats().Runs != 1 {
		t.Fatalf("Runs=%d, want 1", s.Stats().Runs)
	}
	// p1 re-observed after eviction: window-local first-seen fires again.
	if first, _ := s.Add(p1, 0.1); !first {
		t.Fatal("evicted p1 not window-local first-seen")
	}

	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drain(t, it)
	// Max-combine must survive the eviction: 0.9 from the spilled run wins
	// over the 0.1 re-observation in the live window.
	if got[p1] != 0.9 {
		t.Fatalf("p1 score %v, want 0.9", got[p1])
	}
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3", len(got))
	}
}

// TestPairsAddAfterIter asserts the accumulator rejects writes once the
// merge has started.
func TestPairsAddAfterIter(t *testing.T) {
	s := NewPairs(4, t.TempDir())
	defer s.Close()
	if _, err := s.Add(record.MakePair(1, 2), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Iter(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(record.MakePair(3, 4), 0.5); err == nil {
		t.Fatal("Add after Iter succeeded")
	}
}

// TestPairsStats pins the byte accounting of the run format.
func TestPairsStats(t *testing.T) {
	s := NewPairs(3, t.TempDir())
	defer s.Close()
	for i := int64(0); i < 7; i++ {
		if _, err := s.Add(record.MakePair(i, i+100), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Runs != 2 {
		t.Fatalf("Runs=%d, want 2", st.Runs)
	}
	if st.SpilledEntries != 6 {
		t.Fatalf("SpilledEntries=%d, want 6", st.SpilledEntries)
	}
	if st.SpilledBytes != 6*entryLen {
		t.Fatalf("SpilledBytes=%d, want %d", st.SpilledBytes, 6*entryLen)
	}
	if len(s.mem) != 1 {
		t.Fatalf("window holds %d pairs, want 1", len(s.mem))
	}
}

// TestPairsEmpty asserts an untouched accumulator merges to an empty
// stream.
func TestPairsEmpty(t *testing.T) {
	s := NewPairs(0, t.TempDir())
	defer s.Close()
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.Next(); err != io.EOF {
		t.Fatalf("empty iter: %v, want io.EOF", err)
	}
}

// TestPairsDefaultCap asserts the zero-value cap selects DefaultCap rather
// than spilling on every Add.
func TestPairsDefaultCap(t *testing.T) {
	s := NewPairs(0, t.TempDir())
	defer s.Close()
	for i := int64(0); i < 1000; i++ {
		if _, err := s.Add(record.MakePair(i, i+1), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Runs != 0 {
		t.Fatalf("default cap spilled after 1000 pairs: %+v", s.Stats())
	}
}

// TestIterAllocs: merging a spilled accumulator allocates nothing per
// delivered pair — each disk run reads into its own buffer — so the
// merge's cost does not grow the garbage a stream run leaves behind.
func TestIterAllocs(t *testing.T) {
	s := NewPairs(8, t.TempDir())
	defer s.Close()
	for _, e := range genEvents(3000) {
		if _, err := s.Add(e.p, e.s); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Runs < 2 {
		t.Fatalf("%d runs: the accumulator did not spill", s.Stats().Runs)
	}
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		n++
	})
	if allocs != 0 {
		t.Fatalf("Iter.Next allocates %.2f times per pair over %d runs", allocs, s.Stats().Runs)
	}
	if n != 1001 {
		t.Fatalf("%d calls to Next", n)
	}
}
