package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mfiblocks"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

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
	rep.StripTimings()

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
// failures for the properties the golden file encodes implicitly.
func TestRunReportShape(t *testing.T) {
	fx := newFixture(t, 120)
	opts := Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        fx.gen.Gaz,
		Preprocess: true,
		Gazetteer:  fx.gen.Gaz,
		Metrics:    telemetry.NewRegistry(),
	}
	res, err := Run(opts, fx.gen.Collection)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.SchemaVersion != telemetry.ReportSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", rep.SchemaVersion, telemetry.ReportSchemaVersion)
	}
	if rep.Records != fx.gen.Collection.Len() {
		t.Errorf("Records = %d, want %d", rep.Records, fx.gen.Collection.Len())
	}
	want := []string{"ingest", "blocking", "scoring", "rank"}
	if len(rep.Stages) != len(want) {
		t.Fatalf("Stages = %d, want %d", len(rep.Stages), len(want))
	}
	for i, name := range want {
		if rep.Stages[i].Name != name {
			t.Errorf("Stages[%d] = %q, want %q", i, rep.Stages[i].Name, name)
		}
		if rep.Stages[i].DurationNS < 0 {
			t.Errorf("Stages[%d] negative duration", i)
		}
	}
	if rep.Blocking == nil {
		t.Fatal("Blocking report missing")
	}
	if rep.Blocking.Pairs != len(res.Blocking.Pairs) {
		t.Errorf("Blocking.Pairs = %d, want %d", rep.Blocking.Pairs, len(res.Blocking.Pairs))
	}
	if len(rep.Blocking.Iterations) != len(res.Blocking.Iterations) {
		t.Errorf("Blocking.Iterations = %d, want %d",
			len(rep.Blocking.Iterations), len(res.Blocking.Iterations))
	}
	if rep.Scoring == nil {
		t.Fatal("Scoring report missing")
	}
	if rep.Scoring.Matches != len(res.Matches) {
		t.Errorf("Scoring.Matches = %d, want %d", rep.Scoring.Matches, len(res.Matches))
	}
	if rep.Scoring.Candidates != len(res.Blocking.Pairs) {
		t.Errorf("Scoring.Candidates = %d, want %d", rep.Scoring.Candidates, len(res.Blocking.Pairs))
	}
	if rep.Scoring.Scores == nil || rep.Scoring.Scores.Count != int64(len(res.Matches)) {
		t.Errorf("Scoring.Scores = %+v, want count %d", rep.Scoring.Scores, len(res.Matches))
	}
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
			"core_candidate_pairs_total":    float64(sr.Candidates),
			"core_matches_total":            float64(sr.Matches),
			"core_samesrc_dropped_total":    float64(sr.SameSrcDropped),
			"core_model_dropped_total":      float64(sr.ModelDropped),
			"core_score_distribution_sum":   sr.Scores.Sum,
			"core_score_distribution_count": float64(sr.Scores.Count),
			"mfiblocks_iterations_total":    float64(len(br.Iterations)),
			"mfiblocks_mfis_total":          float64(mfis),
			"mfiblocks_blocks_total":        float64(br.Blocks),
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
		if br.Pairs != sr.Candidates || (spill == 0 && br.Pairs != len(res.Blocking.Pairs)) {
			t.Fatalf("spill=%d: report pairs %d, candidates %d", spill, br.Pairs, sr.Candidates)
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
