package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) {
	telemetry.Silence()
	os.Exit(m.Run())
}

// TestBenchmarkJSON keeps the driver's contract file in step with the
// tables the runner reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Command) == 0 || spec.RunSeconds != nominalSeconds {
		t.Errorf("command %v, run_seconds %d; the op counts are sized for %d", spec.Command, spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != 5 || len(spec.EndToEnd) != 6 || len(spec.PerLayer) != 64 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics; want 5, 6, 64",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, runner has %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the runner's table:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the runner's table")
	}
	name, unit := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] ||
			d.Better != "lower" && d.Better != "higher" || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("bad metric %+v", d)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if layer, _, ok := strings.Cut(d.Name, "."); !ok || layer == "" || d.Bound != 0 {
			t.Errorf("per-layer metric %q: want <layer>.<metric> and no bound", d.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload end to end and staged at a tiny
// scale: both complete, pass their own checks, and report exactly the
// metric names of the tables.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			cfg := runConfig{wl: wl, in: inputs{seed: 3, persons: smokePersons}, ops: 2, outDir: t.TempDir()}
			for _, tc := range []struct {
				run  func() (*runResult, error)
				defs []metricDef
			}{
				{func() (*runResult, error) { return measure(cfg, time.Now()) }, endToEnd},
				{func() (*runResult, error) { return stagedRun(cfg) }, perLayer},
			} {
				r, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
				}
				if len(r.Metrics) != len(tc.defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(tc.defs))
				}
				for _, d := range tc.defs {
					if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
					}
				}
			}
			for _, f := range []string{".trace.json", ".layers.json", ".op.trace.json"} {
				if fi, err := os.Stat(cfg.outDir + "/" + wl.Name + f); err != nil || fi.Size() == 0 {
					t.Errorf("staged run left no %s: %v", f, err)
				}
			}
		})
	}
}

// TestFingerprintGate: the pinned corpora are what the generator gives,
// a perturbed one is refused, and a seed only relabels.
func TestFingerprintGate(t *testing.T) {
	for _, gen := range []func() (*corpus, error){
		func() (*corpus, error) { return italyCorpus(smokePersons) },
		func() (*corpus, error) { return randomCorpus(smokePersons) },
	} {
		c, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		key := fingerprintKey(c.name, smokePersons)
		if err := c.checkFingerprint(key); err != nil {
			t.Error(err)
		}
		before := c.gold.TruePairCount()
		if err := c.rebase(7); err != nil {
			t.Fatal(err)
		}
		if c.checkFingerprint(key) == nil {
			t.Errorf("%s: a re-based corpus passed as the pinned one", key)
		}
		if got := c.gold.TruePairCount(); got != before || c.coll.Len() != len(c.records) {
			t.Errorf("%s: rebase changed the gold standard: %d true pairs, had %d", key, got, before)
		}
		c, _ = gen()
		c.records[len(c.records)/2].Add(record.Profession, "perturbed")
		if c.checkFingerprint(key) == nil {
			t.Errorf("%s: a perturbed corpus passed the fingerprint gate", key)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(opMS ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range opMS {
			f.Runs = append(f.Runs, &runResult{Workload: "resolve_italy", Metrics: map[string]metricValue{
				"op_ms": {v, "ms"}, "recall": {0.6, "ratio"},
			}})
		}
		return f
	}
	bound := endToEnd[1].Bound
	if endToEnd[1].Name != "op_ms" {
		t.Fatal("endToEnd[1] is not op_ms")
	}
	for _, tc := range []struct {
		name      string
		a, b      *resultFile
		regressed int
	}{
		{"same", set(100, 101, 102), set(101, 100, 102), 0},
		{"slower beyond the bound", set(100, 101, 102), set(100*(1+2*bound), 101*(1+2*bound), 102*(1+2*bound)), 1},
		{"faster", set(100, 101, 102), set(50, 51, 52), 0},
		{"too noisy to tell", set(100, 200, 300), set(150, 250, 350), 0},
	} {
		if got := compareSets(tc.a, tc.b, false); got != tc.regressed {
			t.Errorf("%s: %d rows regressed, want %d", tc.name, got, tc.regressed)
		}
	}
}
