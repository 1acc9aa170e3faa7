package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every entry point through nil handles — the
// "disabled is free" contract: a pipeline built with no tracer must run
// all its span sites without branching or panicking.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(nil, "run", WithKind(KindRun))
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	child := sp.Child("stage", WithKind(KindStage), WithTrack(3))
	if child != nil {
		t.Fatal("nil span returned a live child")
	}
	sp.Attr("records", 1).Attrs(map[string]int64{"a": 1}).End()
	child.End()
	if tr.Len() != 0 {
		t.Fatal("nil tracer has spans")
	}
	if got := tr.Tree(Full); got != nil {
		t.Fatalf("nil tracer tree = %+v", got)
	}
	if s := tr.StartSampler(0); s != nil {
		t.Fatal("nil tracer started a sampler")
	}
	tr.Sampler().Stop()
	var smp *Sampler
	smp.Stop()
	if smp.Samples() != nil || smp.Summary() != nil {
		t.Fatal("nil sampler returned data")
	}
	var p *Progress
	p.Stage("ingest", 10)
	p.Add(5)
	p.Start()
	p.Stop()
	var st *SpanTree
	st.StripTimings()
	if st.MaxDepth() != 0 {
		t.Fatal("nil tree has depth")
	}
}

// TestTreeShape builds a small run → stage → iteration hierarchy and
// checks the Full export: parentage, creation-order children, attrs, and
// depth.
func TestTreeShape(t *testing.T) {
	tr := New()
	run := tr.StartSpan(nil, "run", WithKind(KindRun)).Attr("records", 100)
	blocking := run.Child("blocking", WithKind(KindStage))
	it1 := blocking.Child("iteration", WithKind(KindIteration)).Attr("minsup", 8)
	it1.Child("tree_build").End()
	it1.End()
	it2 := blocking.Child("iteration", WithKind(KindIteration)).Attr("minsup", 4)
	it2.End()
	blocking.End()
	run.Child("rank", WithKind(KindStage)).End()
	run.End()

	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	tree := tr.Tree(Full)
	if tree.SchemaVersion != TreeSchemaVersion || tree.Spans != 6 {
		t.Fatalf("tree header = %+v", tree)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "run" || tree.Roots[0].Kind != "run" {
		t.Fatalf("roots = %+v", tree.Roots)
	}
	root := tree.Roots[0]
	if root.Attrs["records"] != 100 {
		t.Fatalf("root attrs = %+v", root.Attrs)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "blocking" || root.Children[1].Name != "rank" {
		t.Fatalf("stage order not creation order: %+v", root.Children)
	}
	iters := root.Children[0].Children
	if len(iters) != 2 || iters[0].Attrs["minsup"] != 8 || iters[1].Attrs["minsup"] != 4 {
		t.Fatalf("iterations = %+v", iters)
	}
	if d := tree.MaxDepth(); d != 4 {
		t.Fatalf("MaxDepth = %d, want 4 (run→stage→iteration→op)", d)
	}
}

// TestEndIdempotent pins that the first End wins: a double End (or a
// racing End) must not move the recorded duration.
func TestEndIdempotent(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(nil, "op")
	sp.End()
	first := sp.end.Load()
	if first == 0 {
		t.Fatal("End did not record")
	}
	time.Sleep(time.Millisecond)
	sp.End()
	if got := sp.end.Load(); got != first {
		t.Fatalf("second End moved the end time: %d -> %d", first, got)
	}
}

// TestAttrsSorted pins that map-form attributes land in key order
// regardless of map iteration randomness.
func TestAttrsSorted(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(nil, "op").Attrs(map[string]int64{"zeta": 1, "alpha": 2, "mid": 3})
	if len(sp.attrs) != 3 || sp.attrs[0].Key != "alpha" || sp.attrs[1].Key != "mid" || sp.attrs[2].Key != "zeta" {
		t.Fatalf("attrs not sorted: %+v", sp.attrs)
	}
}

// TestConcurrentSpanCreation hammers StartSpan/Child/End from many
// goroutines — the Treiber-stack publication path the mining and scoring
// pools rely on. Run with -race this is the span system's data-race
// certificate; without it it still checks no span is lost.
func TestConcurrentSpanCreation(t *testing.T) {
	tr := New()
	root := tr.StartSpan(nil, "run", WithKind(KindRun))
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := root.Child("worker", WithKind(KindWorker), WithTrack(w+1))
			for i := 0; i < perWorker; i++ {
				wsp.Child("op").Attr("i", int64(i)).End()
			}
			wsp.Attr("ops", perWorker).End()
		}(w)
	}
	wg.Wait()
	root.End()
	want := 1 + workers*(perWorker+1)
	if tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	tree := tr.Tree(Full)
	if tree.Spans != want || len(tree.Roots) != 1 {
		t.Fatalf("tree lost spans: %d roots=%d", tree.Spans, len(tree.Roots))
	}
}

// TestCanonicalPrunesFanOut pins the determinism mechanism: worker and
// setup subtrees vanish under Canonical, timings zero, and
// siblings sort — so a 1-worker and an 8-worker run of the same workload
// export identical canonical trees.
func TestCanonicalPrunesFanOut(t *testing.T) {
	build := func(workers int) *SpanTree {
		tr := New()
		run := tr.StartSpan(nil, "run", WithKind(KindRun)).Attr("records", 50)
		st := run.Child("scoring", WithKind(KindStage))
		st.Child("profile_build", WithKind(KindSetup)).End()
		for w := 0; w < workers; w++ {
			wsp := st.Child("score_worker", WithKind(KindWorker), WithTrack(w+1))
			wsp.Child("chunk").End() // descendants of pruned spans go too
			wsp.End()
		}
		st.End()
		run.End()
		return tr.Tree(Canonical)
	}
	one, eight := build(1), build(8)
	a, b := marshal(t, one), marshal(t, eight)
	if a != b {
		t.Fatalf("canonical trees diverge across worker counts:\n%s\nvs\n%s", a, b)
	}
	if one.Spans != 2 {
		t.Fatalf("canonical span count = %d, want 2 (run, stage)", one.Spans)
	}
	if one.Roots[0].StartNS != 0 || one.Roots[0].DurationNS != 0 {
		t.Fatal("canonical tree kept timings")
	}
	if one.Sampler != nil {
		t.Fatal("canonical tree kept the sampler summary")
	}
}

// TestCanonicalSortsSiblings pins the sibling total order: stages by
// name, same-name iterations by attrs.
func TestCanonicalSortsSiblings(t *testing.T) {
	tr := New()
	run := tr.StartSpan(nil, "run", WithKind(KindRun))
	run.Child("iteration", WithKind(KindIteration)).Attr("minsup", 8).End()
	run.Child("iteration", WithKind(KindIteration)).Attr("minsup", 16).End()
	run.Child("blocking", WithKind(KindStage)).End()
	run.End()
	tree := tr.Tree(Canonical)
	kids := tree.Roots[0].Children
	if len(kids) != 3 {
		t.Fatalf("children = %+v", kids)
	}
	// Stage kind sorts before iteration kind; iterations order by attrs.
	if kids[0].Name != "blocking" {
		t.Fatalf("stage not first: %+v", kids)
	}
	if kids[1].Attrs["minsup"] != 16 || kids[2].Attrs["minsup"] != 8 {
		t.Fatalf("iteration attr order wrong: %+v %+v", kids[1].Attrs, kids[2].Attrs)
	}
}

// TestStripTimings pins the golden-report form: shape and attrs survive,
// wall clock does not.
func TestStripTimings(t *testing.T) {
	tr := New()
	run := tr.StartSpan(nil, "run", WithKind(KindRun)).Attr("records", 9)
	run.Child("stage", WithKind(KindStage)).End()
	run.End()
	tree := tr.Tree(Full)
	tree.StripTimings()
	if tree.Roots[0].StartNS != 0 || tree.Roots[0].DurationNS != 0 ||
		tree.Roots[0].Children[0].DurationNS != 0 {
		t.Fatal("timings survived StripTimings")
	}
	if tree.Roots[0].Attrs["records"] != 9 {
		t.Fatal("attrs did not survive StripTimings")
	}
}

// TestKindRoundTrip pins String/kindOf as inverses — canonicalize keys
// pruning on the string form, so a drifting name would silently stop
// pruning its kind.
func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindRun, KindStage, KindIteration, KindWorker, KindSetup, KindOp} {
		if got := kindOf(k.String()); got != k {
			t.Errorf("kindOf(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	return fmt.Sprintf("%+v", mustJSON(t, v))
}
