package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

// canonicalJSON renders a run's canonical span tree for comparison.
func canonicalJSON(t *testing.T, res *Resolution) string {
	t.Helper()
	tree := res.Trace.Tree(trace.Canonical)
	if tree == nil {
		t.Fatal("traced run produced no tree")
	}
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTraceCanonicalEquivalence is the span system's determinism lock:
// the Canonical tree — timings zeroed, worker/setup spans pruned,
// siblings totally ordered — must be byte-identical across the fan-out
// matrix, because the workload (iterations mined, blocks built, pairs
// spilled, matches ranked) is the same regardless of how it was
// parallelized. A diverging cell means a span site leaked configuration
// into the deterministic tree.
func TestTraceCanonicalEquivalence(t *testing.T) {
	g := equivDataset(t, 200, 777)
	base := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}

	var want, wantLabel string
	for _, workers := range []int{1, 2, 8} {
		// The block cache rides the matrix as a second dimension: its hit
		// counts are volatile span attrs, so cached and uncached runs must
		// emit the same canonical bytes.
		for _, blockCache := range []int{0, mfiblocks.DefaultBlockCache} {
			label := fmt.Sprintf("workers=%d cache=%d", workers, blockCache)
			opts := StreamOptions{Options: base}
			opts.Workers = workers
			opts.Blocking.Workers = workers
			opts.Blocking.BlockCache = blockCache
			opts.Blocking.SpillPairs = 64
			opts.Blocking.SpillDir = t.TempDir()
			opts.Trace = trace.New()
			res, err := RunStream(opts, NewCollectionSource(g.Collection))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Blocking.Spill.Stats().Runs == 0 {
				t.Fatalf("%s: spill never flushed; the matrix is not exercising spill spans", label)
			}
			got := canonicalJSON(t, res)
			if want == "" {
				want, wantLabel = got, label
				continue
			}
			if got != want {
				t.Errorf("canonical trees diverge: %s vs %s\n%s\nvs\n%s", wantLabel, label, want, got)
			}
		}
	}
}

// TestTraceBatchRun pins the batch pipeline's trace surface: the report
// embeds the Full span tree, the hierarchy reaches run → stage →
// iteration → op depth, and the run span carries workload attributes.
func TestTraceBatchRun(t *testing.T) {
	fx := newFixture(t, 200)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz, SameSrc: true}
	opts.Trace = trace.New()
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != opts.Trace {
		t.Fatal("resolution does not carry the tracer")
	}
	tree := res.Report.Spans
	if tree == nil {
		t.Fatal("report has no span tree")
	}
	if tree.SchemaVersion != trace.TreeSchemaVersion || tree.Spans != opts.Trace.Len() {
		t.Fatalf("tree header = %+v (tracer Len %d)", tree, opts.Trace.Len())
	}
	if d := tree.MaxDepth(); d < 4 {
		t.Fatalf("MaxDepth = %d, want >= 4 (run -> stage -> iteration -> op)", d)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "run" || root.Attrs["records"] != int64(fx.gen.Collection.Len()) ||
		root.Attrs["matches"] != int64(len(res.Matches)) {
		t.Fatalf("run span = %+v", root)
	}
	stages := map[string]bool{}
	for _, c := range root.Children {
		if c.Kind == "stage" {
			stages[c.Name] = true
		}
	}
	for _, want := range []string{"ingest", "blocking", "scoring", "rank"} {
		if !stages[want] {
			t.Fatalf("stage span %q missing (have %+v)", want, stages)
		}
	}
}

// TestTraceDisabledByDefault pins the no-op default: an untraced run
// must carry no tracer and no span section, so golden reports are
// untouched by the feature.
func TestTraceDisabledByDefault(t *testing.T) {
	fx := newFixture(t, 100)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz, SameSrc: true}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.Report.Spans != nil {
		t.Fatal("untraced run recorded spans")
	}
}

// TestStreamReportSpillStats pins the satellite surfaces on the
// streaming report: spill-run statistics land in the blocking section,
// and a torn-tail store surfaces its skipped bytes.
func TestStreamReportSpillStats(t *testing.T) {
	g := equivDataset(t, 150, 1944)
	path := filepath.Join(t.TempDir(), "records.yvst")
	if err := store.WriteAll(path, g.Collection.Records); err != nil {
		t.Fatal(err)
	}
	// Tear the tail the way a killed writer would: truncate inside the
	// final frame, leaving a partial frame the recovering reader skips.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	src, err := store.OpenWindowReader(path, store.Recover)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	opts := StreamOptions{Options: Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}}
	opts.Blocking.SpillPairs = 64
	opts.Blocking.SpillDir = t.TempDir()
	res, err := RunStream(opts, src)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if src.TornBytes() == 0 {
		t.Fatal("truncation did not tear a frame")
	}
	if rep.TornBytes != src.TornBytes() {
		t.Fatalf("report TornBytes = %d, reader reports %d", rep.TornBytes, src.TornBytes())
	}
	if rep.Records != g.Collection.Len()-1 {
		t.Fatalf("records = %d, want %d (one lost to the torn frame)", rep.Records, g.Collection.Len()-1)
	}
	st := res.Blocking.Spill.Stats()
	if st.Runs == 0 {
		t.Fatal("fixture never spilled")
	}
	if rep.Blocking.SpillRuns != st.Runs ||
		rep.Blocking.SpilledEntries != st.SpilledEntries ||
		rep.Blocking.SpilledBytes != st.SpilledBytes ||
		rep.Blocking.MergedEntries != st.MergedEntries ||
		rep.Blocking.MergedBytes != st.MergedBytes {
		t.Fatalf("report spill stats %+v diverge from accumulator %+v", rep.Blocking, st)
	}
}

// TestRunAndStreamShareStages locks the one-body pipeline: a batch Run
// and a RunStream that retains records, over the same collection and
// options, report the same stage list and trace the same canonical span
// tree. Two entry points with their own front halves cannot pass it.
func TestRunAndStreamShareStages(t *testing.T) {
	g := equivDataset(t, 200, 777)
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	// Pinned on both sides: the spilled and in-memory candidate paths
	// legitimately trace differently (spill counters, merge spans), and
	// Run takes the in-memory one only when the caller leaves this 0.
	opts.Blocking.SpillPairs = 64
	opts.Blocking.SpillDir = t.TempDir()

	stageNames := func(res *Resolution) []string {
		var names []string
		for _, s := range res.Report.Stages {
			names = append(names, s.Name)
		}
		return names
	}

	opts.Trace = trace.New()
	batch, err := Run(opts, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = trace.New()
	stream, err := RunStream(StreamOptions{Options: opts, RetainRecords: true}, NewCollectionSource(g.Collection))
	if err != nil {
		t.Fatal(err)
	}
	if b, s := stageNames(batch), stageNames(stream); !reflect.DeepEqual(b, s) {
		t.Errorf("stage lists differ: Run %v, RunStream %v", b, s)
	}
	if b, s := canonicalJSON(t, batch), canonicalJSON(t, stream); b != s {
		t.Errorf("canonical trees differ:\nRun:       %s\nRunStream: %s", b, s)
	}
}

// stopMidIngest is a CollectionSource that stops the progress printer
// after a few records, flushing the one status line the ingest stage
// owns at that moment.
type stopMidIngest struct {
	*CollectionSource
	progress *trace.Progress
}

func (s *stopMidIngest) NextRecord() (*record.Record, error) {
	if s.pos == 10 {
		s.progress.Stop()
	}
	return s.CollectionSource.NextRecord()
}

// TestBatchIngestProgressTotal pins what `yver -progress` shows on a
// batch run: the collection's size is known up front, so the ingest
// line carries a total and a percentage, not the open-ended count a
// file stream gets.
func TestBatchIngestProgressTotal(t *testing.T) {
	fx := newFixture(t, 100)
	var buf strings.Builder
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Preprocess: true, Gazetteer: fx.gen.Gaz, SameSrc: true}
	opts.Progress = &trace.Progress{W: &buf, Interval: time.Hour} // only the line Stop flushes
	opts.Progress.Start()
	// Run's own body, with the source wrapped to flush mid-ingest.
	src := &stopMidIngest{CollectionSource: NewCollectionSource(fx.gen.Collection), progress: opts.Progress}
	if _, err := runPipeline(StreamOptions{Options: opts, RetainRecords: true}, src); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("stage=ingest 10/%d (", fx.gen.Collection.Len())
	if !strings.Contains(buf.String(), want) {
		t.Errorf("ingest progress line = %q, want it to contain %q", buf.String(), want)
	}
}
