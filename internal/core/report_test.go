package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

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
