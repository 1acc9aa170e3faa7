package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/mfiblocks"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stripTimings zeroes every stage and iteration duration of rep in place:
// the golden compares report shape and counts, never wall clock.
func stripTimings(rep *telemetry.RunReport) {
	for i := range rep.Stages {
		rep.Stages[i].DurationNS = 0
	}
	if rep.Blocking != nil {
		for i := range rep.Blocking.Iterations {
			rep.Blocking.Iterations[i].Elapsed = 0
		}
	}
}

// TestRunReportGolden pins the RunReport JSON shape — field names, stage
// ordering, and deterministic counts — against a golden file. Timings
// are stripped first; Workers is forced to 1 so the serial path keeps
// the score-distribution sum bit-for-bit reproducible. Regenerate with
//
//	go test ./internal/core -run TestRunReportGolden -update
func TestRunReportGolden(t *testing.T) {
	fx := newFixture(t, 120)
	opts := Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        fx.gen.Gaz,
		Preprocess: true,
		Gazetteer:  fx.gen.Gaz,
		Workers:    1,
		Metrics:    telemetry.NewRegistry(),
	}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Run attached no Report")
	}
	if rep.Spans != nil {
		t.Fatal("an untraced run reported a span tree")
	}
	stripTimings(rep)

	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "runreport.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("RunReport JSON drifted from golden (run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunReportShape asserts the schema invariants directly — readable
// failures for the properties the golden file encodes implicitly — and
// the identities that recover every figure the report leaves out
// because another field gives it: the run's wall clock, the block and
// covered-record totals, the scoring stage's candidates, workers and
// chunks, the profiles it built and the spill's merged entries and
// bytes. Each is checked against what the run itself holds, on a
// resident and a spilled run, with and without a model, at one and
// three workers.
func TestRunReportShape(t *testing.T) {
	base, gen := scoringOptions(t, 120)
	for _, spill := range []int{0, 64} {
		for _, withModel := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				tag := fmt.Sprintf("spill=%d model=%t workers=%d", spill, withModel, workers)
				opts := base
				opts.Workers = workers
				opts.Blocking.SpillPairs = spill
				opts.Blocking.SpillDir = t.TempDir()
				if !withModel {
					opts.Model, opts.Classify = nil, false
				}
				t0 := time.Now()
				res, err := Run(opts, gen.Collection)
				wall := time.Since(t0)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				assertReportShape(t, tag, res, gen.Collection.Len())
				assertReportIdentities(t, tag, opts, res, wall)
			}
		}
	}
}

func assertReportShape(t *testing.T, tag string, res *Resolution, records int) {
	t.Helper()
	rep := res.Report
	if rep.SchemaVersion != telemetry.ReportSchemaVersion {
		t.Errorf("%s: SchemaVersion = %d, want %d", tag, rep.SchemaVersion, telemetry.ReportSchemaVersion)
	}
	if rep.Records != records {
		t.Errorf("%s: Records = %d, want %d", tag, rep.Records, records)
	}
	want := []string{"ingest", "blocking", "scoring", "rank"}
	if len(rep.Stages) != len(want) {
		t.Fatalf("%s: Stages = %d, want %d", tag, len(rep.Stages), len(want))
	}
	for i, name := range want {
		if rep.Stages[i].Name != name {
			t.Errorf("%s: Stages[%d] = %q, want %q", tag, i, rep.Stages[i].Name, name)
		}
		if rep.Stages[i].DurationNS < 0 {
			t.Errorf("%s: Stages[%d] negative duration", tag, i)
		}
	}
	if rep.Blocking == nil {
		t.Fatalf("%s: Blocking report missing", tag)
	}
	if len(rep.Blocking.Iterations) != len(res.Blocking.Iterations) {
		t.Errorf("%s: Blocking.Iterations = %d, want %d", tag,
			len(rep.Blocking.Iterations), len(res.Blocking.Iterations))
	}
	if rep.Scoring == nil {
		t.Fatalf("%s: Scoring report missing", tag)
	}
	if rep.Scoring.Matches != len(res.Matches) {
		t.Errorf("%s: Scoring.Matches = %d, want %d", tag, rep.Scoring.Matches, len(res.Matches))
	}
	if rep.Scoring.Scores == nil || rep.Scoring.Scores.Count != int64(len(res.Matches)) {
		t.Errorf("%s: Scoring.Scores = %+v, want count %d", tag, rep.Scoring.Scores, len(res.Matches))
	}
}

// spillEntryBytes is the on-disk size of one spilled candidate entry.
const spillEntryBytes = 24

func assertReportIdentities(t *testing.T, tag string, opts Options, res *Resolution, wall time.Duration) {
	t.Helper()
	rep, blk := res.Report, res.Blocking
	br, sr := rep.Blocking, rep.Scoring

	// total_ns = Σ stages[].duration_ns: the stages run one after another
	// inside the run's wall clock.
	var total int64
	for _, s := range rep.Stages {
		total += s.DurationNS
	}
	if total <= 0 || total > wall.Nanoseconds() {
		t.Errorf("%s: stages sum to %d ns, the run took %d ns", tag, total, wall.Nanoseconds())
	}

	// blocking.blocks = Σ iterations[].blocks; blocking.covered = the
	// last iteration's covered_now.
	var blocks int
	for _, it := range br.Iterations {
		blocks += it.Blocks
	}
	if blocks != len(blk.Blocks) {
		t.Errorf("%s: iterations hold %d blocks, the run kept %d", tag, blocks, len(blk.Blocks))
	}
	covered := 0
	for _, c := range blk.Covered {
		if c {
			covered++
		}
	}
	if last := br.Iterations[len(br.Iterations)-1]; last.CoveredNow != covered {
		t.Errorf("%s: last covered_now %d, the run covered %d", tag, last.CoveredNow, covered)
	}

	// merged_entries = blocking.pairs; spilled_bytes and merged_bytes =
	// entries × 24.
	if spilled := blk.Spill != nil; spilled != (opts.Blocking.SpillPairs > 0) {
		t.Fatalf("%s: spilled=%t", tag, spilled)
	}
	if blk.Spill == nil {
		if br.Pairs != len(blk.Pairs) || br.SpillRuns != 0 || br.SpilledEntries != 0 {
			t.Errorf("%s: resident run reports %+v for %d pairs", tag, br, len(blk.Pairs))
		}
	} else {
		st := blk.Spill.Stats()
		if br.SpillRuns != st.Runs || br.SpilledEntries != st.SpilledEntries || st.Runs < 2 {
			t.Errorf("%s: report spill %d runs, %d entries; accumulator %+v", tag, br.SpillRuns, br.SpilledEntries, st)
		}
		if st.MergedEntries != int64(br.Pairs) {
			t.Errorf("%s: merged %d entries, report pairs %d", tag, st.MergedEntries, br.Pairs)
		}
		if st.SpilledBytes != spillEntryBytes*st.SpilledEntries || st.MergedBytes != spillEntryBytes*st.MergedEntries {
			t.Errorf("%s: bytes are not 24 per entry: %+v", tag, st)
		}
	}

	// scoring.candidates = blocking.pairs: every candidate is dropped or
	// matched.
	if n := sr.SameSrcDropped + sr.ModelDropped + sr.Matches; n != br.Pairs {
		t.Errorf("%s: scoring accounts for %d candidates, blocking emitted %d", tag, n, br.Pairs)
	}
	if opts.Model != nil && sr.ModelDropped == 0 {
		t.Errorf("%s: the classifier dropped nothing", tag)
	}

	// scoring.workers = workers.
	if rep.Workers != opts.Workers {
		t.Errorf("%s: Workers = %d, want %d", tag, rep.Workers, opts.Workers)
	}

	// profiles_built = records when a model scored, else 0; the scoring
	// loop reads Build's slice, so profile_hits and profile_misses were
	// always 0.
	wantProfiles := 0
	if opts.Model != nil {
		wantProfiles = rep.Records
	}
	if !holdsProfiles(res.profiles, wantProfiles) {
		t.Errorf("%s: the profile cache does not hold %d profiles", tag, wantProfiles)
	}

	// scoring.chunks = ⌈pairs/512⌉: re-score a fresh blocking result of
	// the same collection through a source that counts the workers' pulls.
	cfg := opts.Blocking
	cfg.Workers = opts.Workers
	again, err := mfiblocks.Run(cfg, res.Collection)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	src := &chunkCounter{candidateSource: candidatesOf(again, nil)}
	st, err := scoreCandidates(&opts, res.Collection, src, features.NewProfileCache(features.NewExtractor(opts.Geo)), opts.Workers, nil)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if st.candidates != br.Pairs {
		t.Fatalf("%s: re-scored %d candidates, the run %d", tag, st.candidates, br.Pairs)
	}
	if want := (br.Pairs + scoreChunkSize - 1) / scoreChunkSize; src.chunks.Load() != int64(want) {
		t.Errorf("%s: %d chunks for %d candidates, want %d", tag, src.chunks.Load(), br.Pairs, want)
	}
}

// holdsProfiles reports whether c holds exactly n profiles, read through
// Get, the name Resolution.ScorePair reads them by: index n-1 answers and
// index n is out of range.
func holdsProfiles(c *features.ProfileCache, n int) bool {
	get := func(i int) (ok bool) {
		defer func() { ok = recover() == nil }()
		c.Get(i)
		return true
	}
	return (n == 0 || get(n-1)) && !get(n)
}

// chunkCounter counts the non-empty pulls the scoring workers make.
type chunkCounter struct {
	candidateSource
	chunks atomic.Int64
}

func (c *chunkCounter) next(buf []candidate) (int, error) {
	n, err := c.candidateSource.next(buf)
	if n > 0 {
		c.chunks.Add(1)
	}
	return n, err
}

// TestPublishedFamiliesMatchReport: the registry view of a run is derived
// from its report — every family equals a report field, and no other
// family exists. A spilled run publishes the distinct candidate count
// as mfiblocks_pairs_total, exactly as the in-memory run does.
func TestPublishedFamiliesMatchReport(t *testing.T) {
	fx := newFixture(t, 200)
	for _, spill := range []int{0, 64} {
		reg := telemetry.NewRegistry()
		opts := Options{
			Blocking:   mfiblocks.NewConfig(),
			Geo:        fx.gen.Gaz,
			Preprocess: true,
			Gazetteer:  fx.gen.Gaz,
			SameSrc:    true,
			Metrics:    reg,
		}
		opts.Blocking.SpillPairs = spill
		res, err := Run(opts, fx.gen.Collection)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		br, sr := rep.Blocking, rep.Scoring
		var mfis, cs, ng int
		for _, it := range br.Iterations {
			mfis += it.MFIs
			cs += it.CSPruned
			ng += it.NGPruned
		}
		want := map[string]float64{
			"core_runs_total":               1,
			"core_candidate_pairs_total":    float64(br.Pairs),
			"core_matches_total":            float64(sr.Matches),
			"core_samesrc_dropped_total":    float64(sr.SameSrcDropped),
			"core_model_dropped_total":      float64(sr.ModelDropped),
			"core_score_distribution_sum":   sr.Scores.Sum,
			"core_score_distribution_count": float64(sr.Scores.Count),
			"mfiblocks_iterations_total":    float64(len(br.Iterations)),
			"mfiblocks_mfis_total":          float64(mfis),
			"mfiblocks_blocks_total":        float64(len(res.Blocking.Blocks)),
			"mfiblocks_pairs_total":         float64(br.Pairs),
			"mfiblocks_cs_pruned_total":     float64(cs),
			"mfiblocks_ng_pruned_total":     float64(ng),
		}
		for i, b := range sr.Scores.Bounds {
			want[`core_score_distribution_bucket{le="`+strconv.FormatFloat(b, 'g', -1, 64)+`"}`] = float64(sr.Scores.Cumulative[i])
		}
		want[`core_score_distribution_bucket{le="+Inf"}`] = float64(sr.Scores.Count)
		for _, s := range rep.Stages {
			want[`core_stage_seconds_count{stage="`+s.Name+`"}`] = 1
			want[`core_stage_seconds_sum{stage="`+s.Name+`"}`] = time.Duration(s.DurationNS).Seconds()
		}
		if scored := sr.SameSrcDropped + sr.ModelDropped + sr.Matches; br.Pairs != scored || (spill == 0 && br.Pairs != len(res.Blocking.Pairs)) {
			t.Fatalf("spill=%d: report pairs %d, scored candidates %d", spill, br.Pairs, scored)
		}

		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		families := map[string]bool{}
		seen := 0
		for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
				families[strings.Fields(f)[0]] = true
				continue
			}
			sp := strings.LastIndex(line, " ")
			series, raw := line[:sp], line[sp+1:]
			if strings.HasPrefix(series, "core_stage_seconds_bucket{") {
				continue // one observation each: _count and _sum pin it
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			w, ok := want[series]
			if !ok {
				t.Errorf("spill=%d: unexpected series %s", spill, line)
				continue
			}
			if v != w {
				t.Errorf("spill=%d: %s = %v, the report says %v", spill, series, v, w)
			}
			seen++
		}
		if seen != len(want) {
			t.Errorf("spill=%d: %d of %d expected series published", spill, seen, len(want))
		}
		if len(families) != 13 || !families["core_stage_seconds"] || !families["core_score_distribution"] {
			t.Errorf("spill=%d: families %v, want the 13 derived from the report", spill, families)
		}
	}
}

// TestPublishIntoForeignScoreHistogram: a registry that already holds
// core_score_distribution with other bounds makes Run and RunStream
// return a wrapped error instead of panicking after the pipeline ran,
// and the run publishes nothing.
func TestPublishIntoForeignScoreHistogram(t *testing.T) {
	fx := newFixture(t, 60)
	reg := telemetry.NewRegistry()
	reg.Histogram("core_score_distribution", []float64{0.5})
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: fx.gen.Gaz, Metrics: reg}
	if res, err := Run(opts, fx.gen.Collection); err == nil || res != nil || !strings.Contains(err.Error(), "core: publish: telemetry:") {
		t.Fatalf("Run: %v, resolution %v", err, res != nil)
	}
	res, err := RunStream(StreamOptions{Options: opts}, NewCollectionSource(fx.gen.Collection))
	if err == nil || res != nil || !strings.Contains(err.Error(), "core: publish: telemetry:") {
		t.Fatalf("RunStream: %v, resolution %v", err, res != nil)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "core_runs_total") {
		t.Fatal("a refused publish wrote the run's counters")
	}
}
