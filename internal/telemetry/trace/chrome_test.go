package trace

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// mustJSON round-trips a value through encoding/json, failing the test
// on error — both a serializer check and a canonical comparison form.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// chromeFile is the loadable subset of the trace-event format the tests
// decode exports back into.
type chromeFile struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestWriteChromeNil pins the disabled export: a nil tracer still
// writes a loadable (empty) trace, so -trace-out plumbing never has to
// branch.
func TestWriteChromeNil(t *testing.T) {
	var tr *Tracer
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatalf("nil export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 0 || f.DisplayTimeUnit != "ms" {
		t.Fatalf("nil export = %+v", f)
	}
}

// TestWriteChrome pins the export contract the CI smoke validation and
// Perfetto both rely on: valid JSON, complete events for every span,
// per-worker thread_name metadata, and non-decreasing timestamps.
func TestWriteChrome(t *testing.T) {
	tr := New()
	run := tr.StartSpan(nil, "run", WithKind(KindRun)).Attr("records", 10)
	st := run.Child("scoring", WithKind(KindStage))
	for w := 0; w < 2; w++ {
		st.Child("score_worker", WithKind(KindWorker), WithTrack(w+1)).End()
	}
	st.End()
	run.End()

	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var complete, meta int
	workerTracks := map[string]bool{}
	lastTS := -1.0
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Ts < lastTS {
				t.Fatalf("timestamps not monotonic: %g after %g (%s)", e.Ts, lastTS, e.Name)
			}
			lastTS = e.Ts
			if e.Dur < 0 {
				t.Fatalf("negative duration on %s", e.Name)
			}
		case "M":
			meta++
			if e.Name == "thread_name" {
				var args map[string]string
				if err := json.Unmarshal(e.Args, &args); err != nil {
					t.Fatal(err)
				}
				workerTracks[args["name"]] = true
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if meta == 0 {
		t.Fatal("no metadata events")
	}
	if !workerTracks["worker 0"] || !workerTracks["worker 1"] {
		t.Fatalf("worker tracks missing: %+v", workerTracks)
	}

	// The run span's attrs ride along as args.
	found := false
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Name == "run" {
			var args map[string]int64
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			found = args["records"] == 10
		}
	}
	if !found {
		t.Fatal("run span args missing records attr")
	}
}

// TestWriteChromeCounterSeries pins the flight-recorder lanes: with a
// sampler attached the export carries "C" counter events on the
// dedicated sampler track.
func TestWriteChromeCounterSeries(t *testing.T) {
	tr := New()
	tr.StartSpan(nil, "run", WithKind(KindRun)).End()
	smp := tr.StartSampler(time.Hour) // start+stop samples only; no timer churn
	smp.Stop()

	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int{}
	for _, e := range f.TraceEvents {
		if e.Ph == "C" {
			if e.Tid != samplerTrack {
				t.Fatalf("counter %s on track %d, want %d", e.Name, e.Tid, samplerTrack)
			}
			counters[e.Name]++
		}
	}
	for _, name := range []string{"heap_bytes", "rss_bytes", "goroutines", "gc_pause_total_ns"} {
		if counters[name] == 0 {
			t.Fatalf("counter series %q missing (have %+v)", name, counters)
		}
	}
}

// TestWriteChromeFile pins the file form of the export.
func TestWriteChromeFile(t *testing.T) {
	tr := New()
	tr.StartSpan(nil, "run", WithKind(KindRun)).End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("file is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("file export is empty")
	}
}
