package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the paper's evaluation is present.
	for _, want := range []string{"table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "fig8", "fig11", "fig12", "fig15", "fig16"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if ByID("table3") == nil || ByID("zzz") != nil {
		t.Error("ByID broken")
	}
}

func TestDatasetMemoization(t *testing.T) {
	r := testRunner()
	if r.Italy() != r.Italy() {
		t.Error("Italy dataset not memoized")
	}
	if r.ItalyPre() != r.ItalyPre() {
		t.Error("preprocessed Italy not memoized")
	}
}

func TestSweepMemoizedAndOrdered(t *testing.T) {
	r := testRunner()
	s1, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(sweepNGs)*len(sweepMms) {
		t.Fatalf("sweep size = %d", len(s1))
	}
	if &s1[0] != &s2[0] {
		t.Error("sweep not memoized")
	}
	// Candidates grow with NG within each MaxMinSup series.
	for _, mms := range sweepMms {
		prev := -1
		for _, ng := range sweepNGs {
			for _, s := range s1 {
				if s.MaxMinSup == mms && s.NG == ng {
					if s.Candidates < prev {
						t.Errorf("mms=%d: candidates fell from %d to %d at NG=%v",
							mms, prev, s.Candidates, ng)
					}
					prev = s.Candidates
				}
			}
		}
	}
}

// TestTagScoresInUnitRange checks that every tagged pair carries the
// blocking similarity Figure 8 bins it by, in (0,1]. The scores are not
// printed, so the golden cannot pin them.
func TestTagScoresInUnitRange(t *testing.T) {
	r := testRunner()
	scores := r.TagScores()
	for _, tp := range r.Tags().Pairs {
		s, ok := scores[tp.Pair]
		if !ok || s <= 0 || s > 1 {
			t.Fatalf("pair %v has score %v (ok=%v)", tp.Pair, s, ok)
		}
	}
}

func TestCheapExperimentsProduceOutput(t *testing.T) {
	r := testRunner()
	for _, id := range []string{"table3", "table4", "fig11"} {
		var buf bytes.Buffer
		if err := ByID(id).Run(r, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", id, out)
		}
		if !strings.Contains(out, "==") {
			t.Errorf("%s missing banner", id)
		}
	}
}

func TestTable7RendersTree(t *testing.T) {
	r := testRunner()
	var buf bytes.Buffer
	if err := r.Table7(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(1)") || !strings.Contains(out, "features used:") {
		t.Errorf("Table7 output malformed:\n%s", out)
	}
}
